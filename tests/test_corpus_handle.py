"""Corpus identity as a handle: one key per corpus, and the contracts
that rest on it.

* Every shape a corpus can take -- a plain list, a :class:`Corpus`, a
  snapshot handle, an ``items`` subset and a 2-shard set -- answers
  ``range`` / ``knn`` / ``join`` / ``join_top_k`` byte-identically,
  ties included (integer-lattice walks).
* Keys never alias: two snapshots of equal size and shapes share no
  result or coalescing key, and a hot reload never serves an answer
  cached before it.
* ``planner.corpus_fingerprint`` runs zero times for a snapshot-backed
  request and once per inline corpus per request.
* Out-of-domain ``theta`` / ``radius`` / ``k`` raise one typed error in
  the serial corpus verbs and at the engine, and answer 400 through the
  service.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.engine import Corpus, MotifEngine, planner
from repro.errors import QueryParameterError, ReproError
from repro.extensions.join import (
    join_pairs,
    join_top_k,
    scan_join_topk,
    similarity_join,
)
from repro.index import CorpusIndex
from repro.service import BadRequestError, MotifService
from repro.store import load_snapshot, load_snapshot_shards, save_snapshot
from repro.trajectory import Trajectory

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
OPS = ("range", "knn", "join", "join_top_k")
RADIUS = 2.0
THETA = 2.0
K_NEAREST = 4
K_PAIRS = 14  # past the 10 zero-distance pairs of a 10-walk self-join


def lattice(seed: int, count: int):
    """Short integer-lattice walks: exactly tied distances everywhere."""
    rng = np.random.default_rng(seed)
    return [
        Trajectory(
            rng.integers(0, 5, size=(int(rng.integers(4, 8)), 2))
            .astype(np.float64)
        )
        for _ in range(count)
    ]


def params_for(op: str, spec, query) -> dict:
    """One ``op`` request over the corpus ``spec`` (both join sides)."""
    if op == "range":
        return {"query": query.points.tolist(), "corpus": spec,
                "radius": RADIUS, "index": "tree"}
    if op == "knn":
        return {"query": query.points.tolist(), "corpus": spec,
                "k": K_NEAREST, "index": "tree"}
    if op == "join":
        return {"left": spec, "right": spec, "theta": THETA, "index": "tree"}
    return {"left": spec, "right": spec, "k": K_PAIRS, "index": "tree"}


def answer_of(op: str, reply):
    """The answer part of a reply (statistics differ between shapes)."""
    if op == "join_top_k":
        return reply
    return reply["neighbors" if op == "knn" else "matches"]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """One 10-walk corpus saved plain, as a 2-shard set, and after 4
    decoys in a parent snapshot (``picks`` selects it back out)."""
    root = tmp_path_factory.mktemp("handles")
    corpus = lattice(SEED_BASE + 1, 10)
    decoys = lattice(SEED_BASE + 2, 4)
    save_snapshot(CorpusIndex(corpus, "euclidean"), root / "plain")
    save_snapshot(CorpusIndex(corpus, "euclidean"), root / "set", shards=2)
    save_snapshot(CorpusIndex(decoys + corpus, "euclidean"), root / "parent")
    return {
        "root": root,
        "corpus": corpus,
        "query": lattice(SEED_BASE + 3, 1)[0],
        "picks": list(range(len(decoys), len(decoys) + len(corpus))),
    }


def serving(corpora) -> MotifService:
    """A service with the three snapshots of ``corpora`` registered."""
    service = MotifService(workers=1)
    for name in ("plain", "set", "parent"):
        service.load_snapshot(name, corpora["root"] / name)
    return service


# ----------------------------------------------------------------------
# Parity across handle shapes
# ----------------------------------------------------------------------
def test_engine_answers_identically_for_every_handle_shape(corpora):
    root, query = corpora["root"], corpora["query"]
    shapes = {
        "list": corpora["corpus"],
        "corpus": Corpus.of(corpora["corpus"]),
        "snapshot": Corpus.from_snapshot(load_snapshot(root / "plain")),
        "subset": Corpus.from_snapshot(
            load_snapshot(root / "parent")).subset(corpora["picks"]),
    }
    shards = [Corpus.from_snapshot(index)
              for index in load_snapshot_shards(root / "set")]
    with MotifEngine(executor="inline", result_cache_size=0) as engine:
        answers = {
            name: (
                engine.range(query, shape, RADIUS, index="tree")[0],
                engine.knn(query, shape, K_NEAREST, index="tree")[0],
                engine.join(shape, shape, THETA, index="tree")[0],
                engine.join_top_k(shape, shape, K_PAIRS, index="tree"),
            )
            for name, shape in shapes.items()
        }
        sharded_join, _ = engine.join_sharded(shards, shards, THETA,
                                              index="tree")
        sharded_pairs = engine.join_top_k_sharded(shards, shards, K_PAIRS,
                                                  index="tree")
    reference = answers["list"]
    for name, got in answers.items():
        assert got == reference, name
    assert sharded_join == reference[2]
    assert sharded_pairs == reference[3]
    distances = [dist for dist, _ in reference[3]]
    assert len(set(distances)) < len(distances)  # the ranking has ties


@pytest.mark.parametrize("op", OPS)
def test_service_answers_identically_for_every_spec_shape(corpora, op):
    specs = {
        "inline": [t.points.tolist() for t in corpora["corpus"]],
        "snapshot": {"snapshot": "plain"},
        "subset": {"snapshot": "parent", "items": corpora["picks"]},
        "shards": {"snapshot": "set"},
    }
    with serving(corpora) as service:
        answers = {
            name: answer_of(op, service.submit(
                op, params_for(op, spec, corpora["query"]))[0])
            for name, spec in specs.items()
        }
    for name, got in answers.items():
        assert got == answers["inline"], name


# ----------------------------------------------------------------------
# Keys never alias
# ----------------------------------------------------------------------
def test_equal_size_snapshots_share_no_key(tmp_path):
    first = lattice(SEED_BASE + 10, 6)
    second = [Trajectory(t.points + 1.0) for t in first]  # same shapes
    save_snapshot(CorpusIndex(first, "euclidean"), tmp_path / "a")
    save_snapshot(CorpusIndex(second, "euclidean"), tmp_path / "b")
    query = lattice(SEED_BASE + 11, 1)[0]
    with MotifService(workers=1) as service:
        service.load_snapshot("a", tmp_path / "a")
        service.load_snapshot("b", tmp_path / "b")
        for op in OPS:
            key_a, _ = service._prepare(
                op, params_for(op, {"snapshot": "a"}, query))
            key_b, _ = service._prepare(
                op, params_for(op, {"snapshot": "b"}, query))
            assert key_a != key_b, op
            assert key_a[-1] != key_b[-1], op  # the engine's result key
        replies = {
            name: service.submit(
                "knn", params_for("knn", {"snapshot": name}, query)
            )[0]["neighbors"]
            for name in ("a", "b")
        }
    with MotifEngine(executor="inline") as engine:
        for name, corpus in (("a", first), ("b", second)):
            want, _ = engine.knn(query, corpus, K_NEAREST)
            assert replies[name] == [[d, i] for d, i in want], name


def test_hot_reload_serves_no_pre_reload_answer(tmp_path):
    old = lattice(SEED_BASE + 20, 8)
    new = [Trajectory(t.points + [3.0, 0.0]) for t in old]  # same shapes
    target = tmp_path / "snap"
    save_snapshot(CorpusIndex(old, "euclidean"), target)
    query = lattice(SEED_BASE + 21, 1)[0]
    with MotifEngine(executor="inline") as engine:
        want = {
            name: (engine.range(query, corpus, RADIUS)[0],
                   engine.knn(query, corpus, K_NEAREST)[0])
            for name, corpus in (("old", old), ("new", new))
        }
    assert want["old"] != want["new"]
    spec = {"snapshot": "c"}

    def ask(service):
        matches = service.submit(
            "range", params_for("range", spec, query))[0]["matches"]
        neighbors = service.submit(
            "knn", params_for("knn", spec, query))[0]["neighbors"]
        return [tuple(m) for m in matches], [tuple(n) for n in neighbors]

    with MotifService(workers=1) as service:
        service.load_snapshot("c", target)
        assert ask(service) == want["old"]  # now in the result cache
        save_snapshot(CorpusIndex(new, "euclidean"), target)
        assert service.check_snapshots() == ["c"]
        assert ask(service) == want["new"]


# ----------------------------------------------------------------------
# Keys are computed once per inline corpus, never for a snapshot
# ----------------------------------------------------------------------
@pytest.fixture
def fingerprint_calls(monkeypatch):
    calls = []
    real = planner.corpus_fingerprint

    def counted(trajectories):
        calls.append(len(trajectories))
        return real(trajectories)

    monkeypatch.setattr(planner, "corpus_fingerprint", counted)
    return calls


def test_snapshot_requests_compute_no_corpus_key(corpora, fingerprint_calls):
    specs = (
        {"snapshot": "plain"},
        {"snapshot": "parent", "items": corpora["picks"]},
        {"snapshot": "set"},
    )
    with serving(corpora) as service:  # registration hashes nothing
        for spec in specs:
            for op in OPS:
                service.submit(op, params_for(op, spec, corpora["query"]))
    assert fingerprint_calls == []


@pytest.mark.parametrize("op", OPS)
def test_inline_corpus_is_keyed_once_per_request(corpora, fingerprint_calls,
                                                 op):
    inline = [t.points.tolist() for t in corpora["corpus"]]
    with MotifService(workers=1) as service:
        service.submit(op, params_for(op, inline, corpora["query"]))
    # A join names an inline corpus on each side: two corpora, one
    # pass each.
    sides = 2 if op.startswith("join") else 1
    assert fingerprint_calls == [len(inline)] * sides


# ----------------------------------------------------------------------
# One typed error for out-of-domain corpus-query parameters
# ----------------------------------------------------------------------
BAD_CALLS = {
    "join theta nan": lambda e, c: e.join(c, c, math.nan),
    "join theta negative": lambda e, c: e.join(c, c, -1.0),
    "join theta inf": lambda e, c: e.join(c, c, math.inf),
    "sharded join theta nan": lambda e, c: e.join_sharded([c], [c], math.nan),
    "join_top_k k zero": lambda e, c: e.join_top_k(c, c, 0),
    "sharded join_top_k k zero":
        lambda e, c: e.join_top_k_sharded([c], [c], 0),
    "range radius nan": lambda e, c: e.range(c[0], c, math.nan),
    "range radius negative, empty corpus":
        lambda e, c: e.range(c[0], [], -1.0),
    "knn k zero": lambda e, c: e.knn(c[0], c, 0),
    "knn k fractional": lambda e, c: e.knn(c[0], c, 2.5),
    "knn k True": lambda e, c: e.knn(c[0], c, True),
    "join_top_k k fractional": lambda e, c: e.join_top_k(c, c, 2.5),
    "join_top_k k True": lambda e, c: e.join_top_k(c, c, True),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_engine_rejects_bad_parameters_with_one_typed_error(name):
    corpus = lattice(SEED_BASE + 30, 5)
    with MotifEngine(executor="inline") as engine:
        with pytest.raises(QueryParameterError):
            BAD_CALLS[name](engine, corpus)
    # Callers catching ValueError or ReproError still catch it.
    assert issubclass(QueryParameterError, ValueError)
    assert issubclass(QueryParameterError, ReproError)


@pytest.mark.parametrize("op, bad", [
    ("join", {"theta": math.nan}),
    ("join_top_k", {"k": 0}),
    ("range", {"radius": math.nan}),
    ("knn", {"k": 0}),
    ("join", {"theta": math.inf}),
    ("join_top_k", {"k": 2.5}),
    ("join_top_k", {"k": True}),
    ("range", {"radius": -1.0}),
    ("knn", {"k": 2.5}),
    ("knn", {"k": True}),
])
def test_service_answers_bad_parameters_with_400(corpora, op, bad):
    params = dict(params_for(op, {"snapshot": "plain"}, corpora["query"]),
                  **bad)
    with serving(corpora) as service:
        with pytest.raises(BadRequestError) as excinfo:
            service.submit(op, params)
    assert excinfo.value.status == 400


# The serial corpus verbs apply the same rule: no silent empty answer
# for a NaN threshold, no truncated or boolean k.
def _getter(corpus):
    return lambda i: corpus[i].points


SERIAL_BAD_CALLS = {
    "range_scan radius nan":
        lambda c: CorpusIndex(c).range_scan(c[0], math.nan),
    "range_scan radius nan, brute force":
        lambda c: CorpusIndex(c).range_scan(c[0], math.nan, use_tree=False),
    "knn_scan k fractional": lambda c: CorpusIndex(c).knn_scan(c[0], 2.5),
    "knn_scan k True": lambda c: CorpusIndex(c).knn_scan(c[0], True),
    "candidate_pairs theta nan, tree":
        lambda c: CorpusIndex(c).candidate_pairs(None, math.nan),
    "similarity_join theta nan": lambda c: similarity_join(c, c, math.nan),
    "similarity_join theta nan, indexed":
        lambda c: similarity_join(c, c, math.nan, index=True),
    "join_pairs theta inf": lambda c: join_pairs(
        _getter(c), _getter(c), [(0, 1)], math.inf),
    "join_top_k k fractional": lambda c: join_top_k(c, c, 2.5),
    "join_top_k k True": lambda c: join_top_k(c, c, True),
    "scan_join_topk k True": lambda c: scan_join_topk(
        _getter(c), _getter(c), [(0, 1)], True),
}


@pytest.mark.parametrize("name", sorted(SERIAL_BAD_CALLS))
def test_serial_corpus_verbs_raise_the_engine_error(name):
    corpus = lattice(SEED_BASE + 30, 5)
    with pytest.raises(QueryParameterError):
        SERIAL_BAD_CALLS[name](corpus)


def test_integral_k_of_any_type_is_accepted():
    corpus = lattice(SEED_BASE + 30, 5)
    index = CorpusIndex(corpus)
    want = index.knn_scan(corpus[0], 2)[0]
    assert index.knn_scan(corpus[0], 2.0)[0] == want
    assert index.knn_scan(corpus[0], np.int64(2))[0] == want
    assert join_top_k(corpus, corpus, np.int32(3)) == join_top_k(corpus,
                                                                  corpus, 3)
