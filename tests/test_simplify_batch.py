"""One-pass capped Douglas-Peucker against the per-trajectory loop.

``douglas_peucker_batch`` builds every summary of a batch in one
vectorised sweep per depth and predicts the capped tolerance from each
split point's path-minimum deviation.  Its output must equal, point
for point, what the index computed before: :func:`douglas_peucker` at
the starting tolerance, doubled and rerun until the summary fits the
cap (:func:`reference_capped`, kept here as the reference).  Then a
:class:`CorpusIndex` built on it must reproduce the reference's
simplifications, error radii, tree node arrays, snapshot bytes and
query summaries.

Ties and exact equalities are the risky part, so the generators lean
on integer grids (argmax ties, deviations that equal the tolerance
exactly), repeated points (zero-length chords), collinear runs, 3-D
points whose third column only rides along, magnitudes from 1e-5 to
1e4, and coordinates near 1e300 whose deviations overflow.

Hypothesis examples derive from ``REPRO_TEST_SEED`` (default 0), like
the other seeded property suites.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import obs
from repro.distances.frechet import dfd_matrix, dfd_pairs
from repro.errors import ReproError, TrajectoryError
from repro.index import CorpusIndex
from repro.store import save_snapshot
from repro.trajectory import Trajectory, ops
from repro.trajectory.ops import douglas_peucker, douglas_peucker_batch

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The reference loop's arithmetic overflows near 1e300 by design.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
KINDS = ("walk", "grid", "repeats", "collinear", "huge")


def reference_capped(pts: np.ndarray, eps: float, cap: int) -> np.ndarray:
    """Douglas-Peucker at ``eps``, doubled and rerun until it fits ``cap``."""
    traj = Trajectory(pts)
    simp = douglas_peucker(traj, eps).points
    while simp.shape[0] > cap:
        eps *= 2.0
        simp = douglas_peucker(traj, eps).points
    return simp


def reference_start(pts: np.ndarray, frac: float) -> float:
    """The index's starting tolerance, computed as it always was."""
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    eps = frac * diag
    if eps == 0.0:
        eps = 1e-9 * max(1.0, diag)
    if math.isnan(eps):
        # 0 x an overflowing diagonal: Douglas-Peucker used to accept
        # the NaN and keep only the endpoints, as inf does.
        eps = math.inf
    return eps


def reference_summary(pts: np.ndarray, frac: float, cap: int) -> np.ndarray:
    return reference_capped(pts, reference_start(pts, frac), cap)


def make_points(rng: np.random.Generator, kind: str, n: int, d: int) -> np.ndarray:
    if kind == "walk":
        scale = 10.0 ** rng.integers(-5, 5)
        return rng.normal(size=(n, d)).cumsum(axis=0) * scale
    if kind == "grid":
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if kind == "repeats":
        base = rng.integers(0, 4, size=(max(1, n // 2), d)).astype(np.float64)
        return np.repeat(base, 2, axis=0)[:n] if n > 1 else base[:1]
    if kind == "collinear":
        steps = rng.integers(0, 3, size=n).cumsum().astype(np.float64)
        pts = np.zeros((n, d))
        pts[:, 0] = steps
        pts[n // 2:, 1] = rng.integers(0, 3)
        return pts
    return rng.normal(size=(n, d)) * 1e300 / 4


@st.composite
def batches(draw, max_items=10, max_len=40):
    """A mixed-length batch of one kind (any kind mixed in), one dim."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    d = draw(st.sampled_from((2, 3)))
    out = []
    for _ in range(draw(st.integers(1, max_items))):
        n = draw(st.sampled_from((1, 2, 3))) if draw(st.booleans()) else \
            draw(st.integers(1, max_len))
        mixed = kind if draw(st.integers(0, 3)) else draw(st.sampled_from(KINDS))
        out.append(make_points(rng, mixed, n, d))
    return out


FRACS = st.sampled_from((0.0, 1e-3, 0.05, 0.2, 0.5))
CAPS = st.integers(2, 8)


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape
        assert np.array_equal(g, w)


class TestBatchParity:
    @seed(SEED)
    @SETTINGS
    @given(batch=batches(), frac=FRACS, cap=CAPS)
    def test_index_tolerances(self, batch, frac, cap):
        """Starting at the index's tolerance, for every cap."""
        eps = [reference_start(p, frac) for p in batch]
        got = douglas_peucker_batch(batch, eps, cap)
        assert_same(got, [reference_capped(p, e, cap) for p, e in zip(batch, eps)])
        assert all(g.shape[0] <= cap for g in got)

    @seed(SEED)
    @SETTINGS
    @given(batch=batches(), eps=st.sampled_from((0.25, 0.5, 1.0, 2.0)),
           cap=CAPS)
    def test_exact_tolerances(self, batch, eps, cap):
        """Grid deviations equal these tolerances exactly: only ``>``
        splits, never ``>=``."""
        got = douglas_peucker_batch(batch, [eps] * len(batch), cap)
        assert_same(got, [reference_capped(p, eps, cap) for p in batch])

    @seed(SEED)
    @SETTINGS
    @given(data=st.data(), eps=st.floats(1.0, 1e6), cap=st.integers(2, 6))
    def test_overflowing_deviations(self, data, eps, cap):
        """Near 1e300 the cross product overflows: a NaN deviation never
        splits, an inf one splits until the tolerance overflows too."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        batch = []
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(3, 12))
            x = np.sort(rng.normal(size=n)) * 2.5e299
            y = rng.choice([0.0, 1e10, -1e10, 1e300, 1.0], size=n)
            y[0] = y[-1] = 0.0
            batch.append(np.column_stack([x, y]))
        got = douglas_peucker_batch(batch, [eps] * len(batch), cap)
        assert_same(got, [reference_capped(p, eps, cap) for p in batch])

    def test_batch_spanning_sweeps(self):
        """Several sweep groups, one array longer than a whole group."""
        rng = np.random.default_rng(SEED)
        batch = [make_points(rng, KINDS[i % 4], int(n), 2)
                 for i, n in enumerate(rng.integers(1, 60, size=400))]
        batch.insert(150, make_points(rng, "walk", ops._SWEEP_POINTS + 500, 2))
        assert sum(p.shape[0] for p in batch) > 2 * ops._SWEEP_POINTS
        eps = [reference_start(p, 0.05) for p in batch]
        got = douglas_peucker_batch(batch, eps, 8)
        assert_same(got, [reference_capped(p, e, 8) for p, e in zip(batch, eps)])

    def test_deeper_split_deviates_more(self):
        """A child deviating more than its parent survives only while the
        tolerance is below its parent's (the path minimum)."""
        pts = np.array([[0, 0], [1, 1], [2, 0], [2.5, 5], [3, 0], [4, 0]],
                       dtype=np.float64)
        for eps in (0.5, 0.9, 1.0, 1.5, 4.0):
            for cap in range(2, 7):
                got = douglas_peucker_batch([pts], [eps], cap)
                assert_same(got, [reference_capped(pts, eps, cap)])

    def test_single_and_two_point_arrays(self):
        one, two = np.array([[1.0, 2.0]]), np.array([[0.0, 0.0], [3.0, 4.0]])
        got = douglas_peucker_batch([one, two], [1e-9, 1e-9], 2)
        assert_same(got, [one, two])

    def test_empty_batch(self):
        assert douglas_peucker_batch([], [], 2) == []

    @pytest.mark.parametrize("bad", [
        dict(points=[np.zeros((3, 1))]),
        dict(points=[np.zeros(4)]),
        dict(points=[np.zeros((0, 2))]),
        dict(points=[np.array([[0.0, np.nan], [1.0, 1.0]])]),
        dict(epsilons=[-1.0]),
        dict(epsilons=[0.0]),
        dict(epsilons=[math.nan]),
        dict(epsilons=[1.0, 1.0]),
        dict(max_points=1),
        dict(max_points=2.5),
        dict(max_points=True),
    ])
    def test_rejects(self, bad):
        args = dict(points=[np.zeros((3, 2))], epsilons=[1.0], max_points=4)
        args.update(bad)
        with pytest.raises(TrajectoryError):
            douglas_peucker_batch(args["points"], args["epsilons"],
                                  args["max_points"])


@st.composite
def corpora(draw):
    """Finite-distance corpora: near 1e300 the ground distances overflow
    and the error-radius DP refuses them, before and after alike."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS[:4]))
    d = draw(st.sampled_from((2, 3)))
    items = [
        make_points(rng, kind, int(rng.integers(1, 30)), d)
        for _ in range(draw(st.integers(1, 24)))
    ]
    query = make_points(rng, kind, int(rng.integers(1, 30)), d)
    return items, query


class TestIndexParity:
    @seed(SEED)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=corpora(), frac=FRACS, cap=CAPS,
           metric=st.sampled_from(("euclidean", "chebyshev")))
    def test_summaries_tree_snapshot_and_query(self, tmp_path_factory, case,
                                               frac, cap, metric):
        items, query = case
        index = CorpusIndex(items, metric, simplify_frac=frac,
                            max_simplification_points=cap)
        ref_simps = [reference_summary(p, frac, cap) for p in items]
        ref_errs = dfd_pairs(items, ref_simps, index.metric)
        assert_same(index.simplifications, ref_simps)
        assert np.array_equal(index.simplification_errors, ref_errs)
        assert index.summary_builds == len(items)

        ref = CorpusIndex.restore(
            metric=metric, simplify_frac=frac, max_simplification_points=cap,
            points=items, timestamps=[np.arange(p.shape[0], dtype=np.float64)
                                      for p in items],
            starts=index.starts, ends=index.ends,
            box_lo=index.box_lo, box_hi=index.box_hi,
            simplified=ref_simps, simplification_errors=ref_errs,
        )
        assert ref.content_key == index.content_key
        got_tree = index.ensure_tree().tree_arrays()
        want_tree = ref.ensure_tree().tree_arrays()
        assert got_tree.keys() == want_tree.keys()
        for name in got_tree:
            assert np.array_equal(got_tree[name], want_tree[name]), name

        root = tmp_path_factory.mktemp("snap")
        got_manifest = save_snapshot(index, root / "got")
        want_manifest = save_snapshot(ref, root / "want")
        assert got_manifest == want_manifest

        simp, err = index.simplify_query(index.summarize_query(query))
        ref_simp = reference_summary(query, frac, cap)
        assert_same([simp], [ref_simp])
        assert err == float(
            dfd_matrix(index.metric.pairwise(query, ref_simp))
        )


class TestIndexValidation:
    @pytest.mark.parametrize("frac", [math.nan, math.inf, -0.1, True, "0.1"])
    def test_simplify_frac(self, frac):
        with pytest.raises(ReproError, match="simplify_frac"):
            CorpusIndex([np.zeros((3, 2))], simplify_frac=frac)

    @pytest.mark.parametrize("cap", [2.7, 1, True, np.bool_(True), math.nan,
                                     math.inf, "8"])
    def test_max_simplification_points(self, cap):
        with pytest.raises(ReproError, match="max_simplification_points"):
            CorpusIndex([np.zeros((3, 2))], max_simplification_points=cap)

    def test_integral_values_accepted(self):
        index = CorpusIndex([np.zeros((3, 2))], simplify_frac=0,
                            max_simplification_points=np.int64(3))
        assert index.max_simplification_points == 3
        assert type(index.max_simplification_points) is int

    def test_cli_snapshot_build_rejects_nan_frac(self, tmp_path):
        from repro.cli import main

        with pytest.raises(ReproError, match="simplify_frac"):
            main(["snapshot", "build", "--dataset", "truck", "--count", "2",
                  "--n", "20", "--simplify-frac", "nan",
                  "--output", str(tmp_path / "snap")])
        assert not (tmp_path / "snap").exists()

    def test_one_column_corpus_raises_at_summary_time(self):
        index = CorpusIndex([np.zeros((4, 1)), np.ones((3, 1))])
        with pytest.raises(TrajectoryError, match="at least 2 coordinates"):
            index.ensure_summaries()
        assert index.summary_builds == 0
        with pytest.raises(TrajectoryError, match="at least 2 coordinates"):
            index.summarize_query(np.zeros((5, 1)))


def test_douglas_peucker_rejects_nan_epsilon():
    with pytest.raises(TrajectoryError):
        douglas_peucker(Trajectory(np.zeros((3, 2))), math.nan)


def test_summaries_span_on_cold_build():
    index = CorpusIndex([np.arange(12.0).reshape(6, 2) ** 2] * 3)
    prior = obs.trace_enabled()
    obs.configure(tracing=True)
    trace_id = obs.start_trace()
    try:
        index.ensure_summaries()
        index.ensure_summaries()  # warm: no second span
        records = obs.recent_records(trace_id)
    finally:
        obs.clear_trace()
        obs.configure(tracing=prior)
    spans = [r for r in records if r.get("name") == "index.summaries"]
    assert len(spans) == 1
    assert spans[0]["attrs"] == {"n": 3}
