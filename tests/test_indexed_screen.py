"""Indexed joins screen on the index's own prepared arrays.

An index's candidates already passed the endpoint and box bounds of
``CorpusIndex._split_bounds``, computed with the join filters'
arithmetic, so the indexed screen (:func:`screen_pairs` with
``index=``) keeps only the coupling settle, gathered from the index's
prepared point slab (:meth:`CorpusIndex.screen_runs`), then the
simplification stage.  The tree prepares its centres and boxes once
(:meth:`TrajectoryTree.prepared`).  Pinned here:

* parity: on Euclidean, Chebyshev and haversine corpora (including
  haversine corpora across the antimeridian and within 0.1 degree of a
  pole), matches, ``join_top_k`` entries, :class:`JoinStats` and
  :class:`IndexStats` are equal on the serial ``similarity_join
  (index=True)`` / ``join_top_k``, engine workers {1, 2}, shards {1, 2}
  and ``service.submit``; ``pruned_endpoint`` and ``pruned_bbox`` stay
  0; and the unindexed screen (endpoint and box filters, then the
  coupling settle over raw points) prunes none of the index's
  candidates and settles the same pairs;
* bit equality: the tree's prepared ``pair_lower_bounds`` equals the
  unprepared formula (``rowwise`` plus a box gap on the raw corners),
  and the prepared coupling cells equal ``metric._cells`` on the
  gathered raw points;
* robustness: a restored index whose point slab holds a NaN or a
  latitude of 91 degrees fails with :class:`TrajectoryError` on every
  indexed join path, whichever pairs its walk keeps.

Corpora derive from ``REPRO_TEST_SEED`` (default 0).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro.engine.planner as planner
from repro.distances.frechet import (
    coupling_upper_bounds,
    dfd_pairs,
    flat_coupling_bounds,
)
from repro.distances.ground import (
    BOX_GAP_ANGLE_SLACK,
    BOX_GAP_TERM_SLACK,
    get_metric,
)
from repro.engine import MotifEngine
from repro.engine.corpus import Corpus
from repro.errors import TrajectoryError
from repro.extensions.join import join_top_k, screen_pairs, similarity_join
from repro.index import CorpusIndex, IndexStats
from repro.service import BadRequestError, MotifService
from repro.store import load_snapshot, save_snapshot

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
JOIN_COUNTERS = ("pairs_total", "pruned_index", "pruned_endpoint",
                 "pruned_bbox", "pruned_hausdorff", "decisions", "matches",
                 "settled")
#: Index counters a split into shard blocks leaves unchanged.
SHARD_INVARIANT = ("pairs_total", "pruned_simplification", "candidates")


def _walks(rng, count, centre, scale, geo=False):
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 16))
        pts = rng.normal(size=(n, 2)).cumsum(axis=0) * scale
        pts += np.asarray(centre) + rng.normal(size=2) * 3.0 * scale
        if geo:
            pts[:, 0] = np.clip(pts[:, 0], -90.0, 90.0)
            pts[:, 1] = (pts[:, 1] + 180.0) % 360.0 - 180.0
        out.append(pts)
    return out


def _corpora(name, seed):
    rng = np.random.default_rng(seed)
    if name in ("euclidean", "chebyshev"):
        return name, _walks(rng, 22, (0.0, 0.0), 1.0), \
            _walks(rng, 18, (2.0, 0.0), 1.0)
    if name == "antimeridian":
        return "haversine", \
            _walks(rng, 22, (10.0, 179.97), 0.01, geo=True), \
            _walks(rng, 18, (10.0, -179.97), 0.01, geo=True)
    # Within 0.1 degree of the north pole: every longitude.
    left = _walks(rng, 22, (89.95, 0.0), 0.004, geo=True)
    right = _walks(rng, 18, (89.95, 120.0), 0.004, geo=True)
    for pts in left + right:
        pts[:, 0] = np.clip(pts[:, 0], 89.9, 90.0)
        pts[:, 1] = rng.uniform(-180.0, 180.0, size=len(pts))
    return "haversine", left, right


CASES = ("euclidean", "chebyshev", "antimeridian", "pole")


def _theta(left, right, metric, q):
    a, b = np.divmod(np.arange(len(left) * len(right)), len(right))
    dists = dfd_pairs([left[i] for i in a], [right[j] for j in b], metric)
    return float(np.quantile(dists, q))


def _halves(corpus):
    mid = len(corpus) // 2
    return [list(corpus[:mid]), list(corpus[mid:])]


@pytest.fixture(scope="module")
def engines():
    with MotifEngine(workers=1, result_cache_size=0) as one, \
            MotifEngine(workers=2, result_cache_size=0) as two:
        yield {1: one, 2: two}


# ----------------------------------------------------------------------
# Parity on every path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES)
def test_unindexed_screen_prunes_no_index_candidate(case):
    """The endpoint and box re-filters the indexed screen dropped prune
    nothing the walk kept, and the two screens settle the same pairs."""
    metric, left, right = _corpora(case, SEED)
    for q in (0.05, 0.3):
        theta = _theta(left, right, metric, q)
        il, ir = CorpusIndex(left, metric), CorpusIndex(right, metric)
        pairs, index_stats = il.candidate_pairs(ir, theta)
        assert len(pairs)
        raw = screen_pairs(il.points, ir.points, pairs, theta, metric)
        assert raw[2].pruned_endpoint == 0
        assert raw[2].pruned_bbox == 0
        got = screen_pairs(il.points, ir.points, pairs, theta, metric,
                           index=(il, ir, IndexStats()))
        assert np.array_equal(got[0], raw[0])
        assert vars(got[2]) == vars(raw[2])
        # The simplification stage only removes pairs from the rest.
        kept = {tuple(p) for p in got[1].tolist()}
        assert kept <= {tuple(p) for p in raw[1].tolist()}


@pytest.mark.parametrize("case", CASES)
def test_every_path_equal(case, engines, monkeypatch):
    metric, left, right = _corpora(case, SEED)
    theta = _theta(left, right, metric, 0.1)
    k = 5
    # Force the pool path at workers=2: these joins sit below the floor.
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    want, want_stats = similarity_join(left, right, theta, metric,
                                       index=True)
    assert want == similarity_join(left, right, theta, metric)[0]
    assert want, "the join should have matches"
    assert want_stats.pruned_endpoint == 0
    assert want_stats.pruned_bbox == 0
    want_index = want_stats.details["index"]
    want_top = join_top_k(left, right, k, metric)

    def check(matches, stats, top, invariant=None):
        assert matches == want
        assert top == want_top
        for key in JOIN_COUNTERS:
            assert getattr(stats, key) == getattr(want_stats, key), key
        got = stats.details["index"]
        for key in invariant or want_index:
            assert got[key] == want_index[key], key

    for workers, eng in engines.items():
        matches, stats = eng.join(left, right, theta, metric=metric,
                                  index=True)
        top = eng.join_top_k(left, right, k=k, metric=metric, index=True)
        check(matches, stats, top)
        for shards, invariant in ((1, None), (2, SHARD_INVARIANT)):
            lefts = [list(left)] if shards == 1 else _halves(left)
            rights = [list(right)] if shards == 1 else _halves(right)
            matches, stats = eng.join_sharded(lefts, rights, theta,
                                              metric=metric, index=True)
            top = eng.join_top_k_sharded(lefts, rights, k=k, metric=metric,
                                         index=True)
            check(matches, stats, top, invariant)
    with MotifService(workers=2) as service:
        base = {"left": [p.tolist() for p in left],
                "right": [p.tolist() for p in right],
                "metric": metric, "index": True}
        out, _ = service.submit("join", {**base, "theta": theta})
        top, _ = service.submit("join_top_k", {**base, "k": k})
    assert [tuple(p) for p in out["matches"]] == want
    assert [(e["distance"], tuple(e["pair"])) for e in top] == want_top
    for key in JOIN_COUNTERS:
        assert out["stats"][key] == getattr(want_stats, key), key
    assert out["stats"]["details"]["index"] == want_index


# ----------------------------------------------------------------------
# Prepared arrays equal the unprepared formulas bit for bit
# ----------------------------------------------------------------------
def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _reference_box_gap(m, lo_a, hi_a, lo_b, hi_b):
    """The box gap recomputed from the raw corners, operation for
    operation as the unprepared formulas (axis gap, great-circle gap)
    run it."""
    if m.name != "haversine":
        gaps = np.moveaxis(
            np.maximum(0.0, np.maximum(lo_b - hi_a, lo_a - hi_b)), -1, 0
        )
        return m._cells(np.zeros_like(gaps), gaps)
    (lat_lo_a, lon_lo_a), (lat_hi_a, lon_hi_a), \
        (lat_lo_b, lon_lo_b), (lat_hi_b, lon_hi_b) = (
            np.moveaxis(np.radians(x[..., :2]), -1, 0)
            for x in (lo_a, hi_a, lo_b, hi_b)
        )
    dphi = np.maximum(lat_lo_b - lat_hi_a, lat_lo_a - lat_hi_b)
    gap = np.maximum(lon_lo_b - lon_hi_a, lon_lo_a - lon_hi_b)
    span = np.maximum(lon_hi_b - lon_lo_a, lon_hi_a - lon_lo_b)
    g = np.minimum(gap, 2.0 * np.pi - span)
    dphi = np.maximum(dphi - BOX_GAP_ANGLE_SLACK, 0.0)
    g = np.maximum(g - BOX_GAP_ANGLE_SLACK, 0.0)
    phi = np.maximum(
        np.maximum(lat_hi_a, -lat_lo_a), np.maximum(lat_hi_b, -lat_lo_b)
    )
    h = (
        np.sin(dphi / 2.0) ** 2 + np.cos(phi) ** 2 * np.sin(g / 2.0) ** 2
    ) * (1.0 - BOX_GAP_TERM_SLACK)
    return 2.0 * m.radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def _random_trees(metric, seed, dims=2):
    """Two fanout-3 trees; haversine ones hold pole and antimeridian
    boxes (wrapped longitudes) next to mid-latitude ones."""
    rng = np.random.default_rng(seed)
    corpora = []
    for _ in range(2):
        corpus = []
        for i in range(24):
            n = int(rng.integers(2, 9))
            if metric == "haversine":
                centre = [(89.95, 0.0), (-89.97, 40.0), (5.0, 179.99),
                          (-20.0, -179.98), (47.0, 8.0)][i % 5]
                pts = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.02 + centre
                pts[:, 0] = np.clip(pts[:, 0], -90.0, 90.0)
                pts[:, 1] = (pts[:, 1] + 180.0) % 360.0 - 180.0
            else:
                pts = rng.normal(size=(n, dims)).cumsum(axis=0) \
                    + rng.normal(size=dims) * 6.0
            corpus.append(pts)
        corpora.append(CorpusIndex(corpus, metric).ensure_tree(fanout=3))
    return corpora


@pytest.mark.parametrize("metric,dims", [
    ("haversine", 2), ("euclidean", 2), ("euclidean", 3), ("chebyshev", 2),
])
def test_prepared_pair_bounds_equal_the_unprepared_formula(metric, dims):
    m = get_metric(metric)
    for seed in (SEED, SEED + 1):
        ta, tb = _random_trees(metric, seed, dims)
        na, nb = np.divmod(np.arange(ta.n_nodes * tb.n_nodes), tb.n_nodes)
        got = ta.pair_lower_bounds(tb, na, nb)
        lb = np.maximum(
            m.rowwise(ta.start_center[na], tb.start_center[nb])
            - ta.start_radius[na] - tb.start_radius[nb],
            m.rowwise(ta.end_center[na], tb.end_center[nb])
            - ta.end_radius[na] - tb.end_radius[nb],
        )
        lo_a = np.stack([ta.box_lo, ta.start_lo, ta.end_lo], axis=1)[na]
        hi_a = np.stack([ta.box_hi, ta.start_hi, ta.end_hi], axis=1)[na]
        lo_b = np.stack([tb.box_lo, tb.start_lo, tb.end_lo], axis=1)[nb]
        hi_b = np.stack([tb.box_hi, tb.start_hi, tb.end_hi], axis=1)[nb]
        gap = _reference_box_gap(m, lo_a, hi_a, lo_b, hi_b)
        assert np.array_equal(_bits(m.box_gap(lo_a, hi_a, lo_b, hi_b)),
                              _bits(gap))
        want = np.maximum(np.maximum(lb, gap.max(axis=1)), 0.0)
        assert np.array_equal(_bits(got), _bits(want))
        if metric == "haversine":
            assert np.any(gap > 0.0)


@pytest.mark.parametrize("metric,dims", [
    ("haversine", 2), ("euclidean", 2), ("euclidean", 3), ("chebyshev", 2),
])
def test_prepared_coupling_cells_equal_raw_cells(metric, dims):
    m = get_metric(metric)
    rng = np.random.default_rng(SEED + 3)
    corpus = [rng.normal(size=(int(rng.integers(1, 12)), dims)).cumsum(0)
              for _ in range(15)]
    if metric == "haversine":
        # Near the north pole, across the antimeridian.
        corpus = [np.column_stack([
            np.clip(p[:, 0] * 0.01 + 89.95, -90.0, 90.0),
            (p[:, 1] * 0.05 + 179.99 + 180.0) % 360.0 - 180.0,
        ]) for p in corpus]
    index = CorpusIndex(corpus, metric)
    prepared, first, lengths = index.screen_runs()
    points = index.transport_slabs()["points"]
    rows_a = rng.integers(0, len(points), size=500)
    rows_b = rng.integers(0, len(points), size=500)
    got = m.prepared_cells([x[rows_a] for x in prepared],
                           [x[rows_b] for x in prepared])
    want = m._cells(list(points[rows_a].T), list(points[rows_b].T))
    assert np.array_equal(_bits(got), _bits(want))
    a, b = np.divmod(np.arange(len(corpus) ** 2), len(corpus))
    got = flat_coupling_bounds(prepared, first[a], lengths[a],
                               prepared, first[b], lengths[b], m)
    want = coupling_upper_bounds([corpus[i] for i in a],
                                 [corpus[j] for j in b], m)
    assert np.array_equal(_bits(got), _bits(want))


# ----------------------------------------------------------------------
# A bad point slab fails on every indexed join path
# ----------------------------------------------------------------------
def _geo_corpus(seed, count, shift):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(8, 2)).cumsum(axis=0) * 0.01
            + np.array([45.0, 7.0 + shift]) for _ in range(count)]


@pytest.fixture(params=["nan", "lat91"])
def bad_snapshots(request, tmp_path):
    """Left and right haversine snapshots; one point in the middle of
    the left slab is then overwritten with a NaN or a 91 degree
    latitude, leaving the persisted summaries and tree intact."""
    left, right = _geo_corpus(SEED, 12, 0.0), _geo_corpus(SEED + 1, 10, 0.001)
    paths = {}
    for side, corpus in (("left", left), ("right", right)):
        paths[side] = tmp_path / side
        save_snapshot(CorpusIndex(corpus, "haversine"), paths[side])
    manifest = json.loads((paths["left"] / "manifest.json").read_text())
    spec = manifest["arrays"]["points"]
    slab = np.memmap(paths["left"] / spec["file"], dtype="<f8", mode="r+",
                     shape=tuple(spec["shape"]))
    slab[20, 0] = np.nan if request.param == "nan" else 91.0
    slab.flush()
    del slab
    return request.param, left, right, paths


def test_restored_bad_slab_raises(bad_snapshots, engines):
    kind, left, right, paths = bad_snapshots
    il, ir = load_snapshot(paths["left"]), load_snapshot(paths["right"])
    # Engine handles over the restored indexes, keyed apart from any
    # other corpus.
    cl = Corpus(tuple(left), f"bad-{kind}-left", il)
    cr = Corpus(tuple(right), f"bad-{kind}-right", ir)
    for theta in (1e7, 1.0):
        pairs, stats = il.candidate_pairs(ir, theta)
        # Every pair, then none: at 1 m only the per-index slab check
        # can see the damaged point.
        assert len(pairs) == (len(left) * len(right) if theta > 1 else 0)
        with pytest.raises(TrajectoryError):
            screen_pairs(il.points, ir.points, pairs, theta, "haversine",
                         index=(il, ir, stats))
        for eng in engines.values():
            with pytest.raises(TrajectoryError):
                eng.join(cl, cr, theta, metric="haversine", index=True)
    for eng in engines.values():
        with pytest.raises(TrajectoryError):
            eng.join_top_k(cl, cr, k=3, metric="haversine", index=True)
    with MotifService(workers=2) as service:
        if kind == "nan":
            # The snapshot's trajectories refuse the NaN when mapped.
            with pytest.raises(TrajectoryError):
                service.load_snapshot("left", paths["left"])
            return
        service.load_snapshot("left", paths["left"])
        service.load_snapshot("right", paths["right"])
        base = {"left": {"snapshot": "left"}, "right": {"snapshot": "right"},
                "metric": "haversine", "index": "tree"}
        # The service reports a TrajectoryError as a bad request.
        with pytest.raises(BadRequestError, match="latitude"):
            service.submit("join", {**base, "theta": 1.0})
        with pytest.raises(BadRequestError, match="latitude"):
            service.submit("join_top_k", {**base, "k": 3})
