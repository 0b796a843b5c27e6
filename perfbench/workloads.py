"""The three workloads: inputs, request streams and answer checkers.

Every input is a pure function of the workload seed.  The server only
ever receives generated inputs: trajectories inline in the request body
(``motif_discover``) or snapshots this module builds (the corpus
workloads).  Checkers compare replies with serial in-process references
computed after the timed phase, under the canonical orders the engine
promises: ``(distance, indices)`` for motifs and neighbours, ascending
index for range matches, left-major pairs for joins and
``(distance, (a, b))`` for closest pairs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Input sizes per scale.  ``full`` is the benchmark; ``tiny`` is the
#: smoke scale the benchmark's own tests run.
SCALES = {
    "full": {
        "motif_points": (400, 500),
        "query_corpus": 3000, "query_points": 40,
        "join_clusters": 20, "join_per_cluster": 10, "join_points": 30,
        "motif_checks": 16, "query_checks": 40, "join_checks": 2,
    },
    "tiny": {
        "motif_points": (60, 80),
        "query_corpus": 120, "query_points": 16,
        "join_clusters": 4, "join_per_cluster": 5, "join_points": 12,
        "motif_checks": 4, "query_checks": 8, "join_checks": 2,
    },
}


@dataclass
class Request:
    """One request of a stream; ``key`` groups identical requests."""

    op: str
    params: dict
    key: Tuple


@dataclass
class Workload:
    name: str
    why: str
    connections: int
    engine_workers: int
    engine_kwargs: Dict = field(default_factory=dict)
    #: Upper end of the uniform think time a client waits before each
    #: request (seconds, drawn from the request's seeded stream).
    think_s: float = 0.0

    def __post_init__(self) -> None:
        self.scale: Dict = {}
        self.seed = 0

    def prepare(self, seed: int, scale: str) -> None:
        """Generate the corpora (not timed: they are inputs)."""
        self.seed = int(seed)
        self.scale = SCALES[scale]

    def corpora(self) -> Dict[str, Tuple[list, str]]:
        """``{snapshot name: (trajectories, metric)}`` the server loads."""
        return {}

    def warmup(self) -> List[Request]:
        """Requests sent during set-up, outside the measured stream."""
        raise NotImplementedError

    def request(self, i: int) -> Request:
        """The ``i``-th request of the measured stream."""
        raise NotImplementedError

    def check(self, replies: List[Tuple[Request, dict]]) -> Tuple[int, list]:
        """``(answers verified, [(request, reason), ...] wrong)``."""
        raise NotImplementedError


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng([int(p) & 0xFFFFFFFF for p in parts])


def _sample(items: list, count: int, seed: int) -> list:
    """A fixed seeded sample of ``items`` (all of them when few)."""
    if len(items) <= count:
        return list(items)
    picked = random.Random(seed).sample(range(len(items)), count)
    return [items[i] for i in sorted(picked)]


# ----------------------------------------------------------------------
# motif_discover
# ----------------------------------------------------------------------
class MotifDiscover(Workload):
    """Unique single-trajectory motif requests, 3 discover : 1 top_k."""

    def _make(self, i: int, op: str, seed: int) -> Request:
        from repro.bench.harness import default_xi
        from repro.datasets import get_dataset

        lo, hi = self.scale["motif_points"]
        rng = _rng(seed, 1, i)
        n = int(rng.integers(lo, hi + 1))
        name = "truck" if i % 2 == 0 else "geolife"
        traj = get_dataset(name, seed=int(rng.integers(1 << 30))).generate(n)
        points = np.asarray(traj.points, dtype=np.float64).tolist()
        params = {"trajectory": points, "min_length": default_xi(n)}
        if op == "top_k":
            params["k"] = 5
        return Request(op, params, (op, i))

    def warmup(self) -> List[Request]:
        # Fixed truck inputs: GeoLife-like costs vary 4x between seeds,
        # which would show up as set-up time.
        return [self._make(-2, "discover", 0), self._make(-4, "top_k", 0)]

    def request(self, i: int) -> Request:
        return self._make(i, "top_k" if i % 4 == 3 else "discover", self.seed)

    def check(self, replies):
        from repro.core import discover_motif
        from repro.extensions.topk import discover_top_k_motifs
        from repro.trajectory import Trajectory

        wrong = []
        sample = _sample(replies, self.scale["motif_checks"], self.seed)
        for req, result in sample:
            traj = Trajectory(np.asarray(req.params["trajectory"]))
            xi = req.params["min_length"]
            if req.op == "discover":
                ref = discover_motif(traj, min_length=xi, algorithm="gtm_star")
                want = (float(ref.distance), [int(v) for v in ref.indices])
                got = (result["distance"], result["indices"])
            else:
                ref = discover_top_k_motifs(traj, min_length=xi, k=5)
                want = [(float(m.distance), [int(v) for v in m.indices])
                        for m in ref]
                got = [(m["distance"], m["indices"]) for m in result]
            if got != want:
                wrong.append((req, f"{req.op}: got {got} want {want}"))
        return len(sample), wrong


# ----------------------------------------------------------------------
# corpus_query
# ----------------------------------------------------------------------
class CorpusQuery(Workload):
    """knn / range over one registered random-walk snapshot."""

    HOT = 8
    RADIUS = 15.0
    K = 5

    def prepare(self, seed, scale):
        super().prepare(seed, scale)
        n = self.scale["query_corpus"]
        length = self.scale["query_points"]
        # Density as in the 4000-walk / 300-unit square the workload was
        # sized on, so a radius-15 range keeps ~20 matches at any n.
        self.width = 300.0 * math.sqrt(n / 4000.0)
        rng = _rng(self.seed, 2)
        self.corpus = [self._walk(rng, length) for _ in range(n)]
        hot_rng = _rng(self.seed, 3)
        self.hot = [
            self._make("knn" if h % 2 == 0 else "range",
                       self._walk(hot_rng, length), ("hot", h))
            for h in range(self.HOT)
        ]

    def _walk(self, rng, length) -> np.ndarray:
        walk = rng.normal(size=(length, 2)).cumsum(axis=0)
        return walk + rng.uniform(0.0, self.width, size=2)

    def _make(self, op: str, query: np.ndarray, key) -> Request:
        params = {"query": query.tolist(), "corpus": {"snapshot": "corpus"},
                  "metric": "euclidean", "index": "tree"}
        if op == "knn":
            params["k"] = self.K
        else:
            params["radius"] = self.RADIUS
        return Request(op, params, (op,) + tuple(key))

    def corpora(self):
        return {"corpus": (self.corpus, "euclidean")}

    def warmup(self):
        rng = _rng(self.seed, 4)
        length = self.scale["query_points"]
        return [self._make(op, self._walk(rng, length), ("warmup", op))
                for op in ("knn", "range")]

    def request(self, i):
        rng = _rng(self.seed, 5, i)
        if rng.random() < 0.25:
            return self.hot[int(rng.integers(self.HOT))]
        op = "knn" if rng.random() < 0.5 else "range"
        return self._make(op, self._walk(rng, self.scale["query_points"]),
                          ("fresh", i))

    def reference(self, req: Request):
        """Serial exact scan with ``discrete_frechet``.

        Corpus items are visited in ascending order of the endpoint
        lower bound ``max(d(q0, t0), d(q-1, t-1))`` (every coupling pairs
        both endpoint pairs), and the scan stops once that bound strictly
        exceeds the radius (range) or the current k-th distance (knn), so
        ties at the cut are still scanned.
        """
        from repro.distances.frechet import discrete_frechet

        q = np.asarray(req.params["query"])
        starts = np.array([t[0] for t in self.corpus])
        ends = np.array([t[-1] for t in self.corpus])
        lb = np.maximum(np.linalg.norm(starts - q[0], axis=1),
                        np.linalg.norm(ends - q[-1], axis=1))
        order = np.argsort(lb, kind="stable")
        if req.op == "range":
            radius = req.params["radius"]
            hits = []
            for i in order:
                if lb[i] > radius:
                    break
                dist = float(discrete_frechet(q, self.corpus[i]))
                if dist <= radius:
                    hits.append([int(i), dist])
            return sorted(hits)
        k = req.params["k"]
        found: List[Tuple[float, int]] = []
        for i in order:
            if len(found) >= k and lb[i] > found[k - 1][0]:
                break
            found.append((float(discrete_frechet(q, self.corpus[i])), int(i)))
            found.sort()
        return [[d, i] for d, i in found[:k]]

    def check(self, replies):
        # Identical requests (the hot set) must all get one answer.
        wrong = []
        by_key: Dict[Tuple, list] = {}
        for req, result in replies:
            by_key.setdefault(req.key, []).append((req, result))
        distinct = [group[0] for group in by_key.values()]
        sample = _sample(distinct, self.scale["query_checks"], self.seed)
        hot = [g[0] for k, g in by_key.items() if k[1] == "hot"]
        checked = {id(r) for r, _ in sample}
        sample += [pair for pair in hot if id(pair[0]) not in checked]
        verified = 0
        for req, _ in sample:
            want = self.reference(req)
            field_name = "neighbors" if req.op == "knn" else "matches"
            for _, result in by_key[req.key]:
                verified += 1
                got = [list(e) for e in result[field_name]]
                if got != want:
                    wrong.append((req, f"{req.op}: got {got} want {want}"))
        return verified, wrong


# ----------------------------------------------------------------------
# corpus_join
# ----------------------------------------------------------------------
class CorpusJoin(Workload):
    """Tree joins and closest-pair joins between two haversine snapshots."""

    THETA = 120.0

    def prepare(self, seed, scale):
        super().prepare(seed, scale)
        clusters = self.scale["join_clusters"]
        per = self.scale["join_per_cluster"]
        n = self.scale["join_points"]
        rng = _rng(self.seed, 6)
        cols = max(1, round(clusters ** 0.5))
        # The hierarchical_index corpus: clusters of short geographic
        # walks ~300 km apart, and the same corpus shifted by ~50 m.
        self.left = []
        for c in range(clusters):
            centre = np.array([(c % cols) * 3.0, (c // cols) * 3.0 + 45.0])
            for _ in range(per):
                walk = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.002
                self.left.append(walk + centre)
        self.right = [t + 0.0005 for t in self.left]

    def corpora(self):
        return {"left": (self.left, "haversine"),
                "right": (self.right, "haversine")}

    def _make(self, i: int) -> Request:
        rng = _rng(self.seed, 7, i)
        params = {"left": {"snapshot": "left"}, "right": {"snapshot": "right"},
                  "metric": "haversine", "index": "tree"}
        # Two joins per closest-pair request: with a 1:1 mix of the two
        # latency modes the median would fall in the gap between them.
        if i % 3 != 2:
            params["theta"] = float(self.THETA * rng.uniform(0.9, 1.1))
            return Request("join", params, ("join", params["theta"]))
        params["k"] = int(rng.integers(5, 13))
        return Request("join_top_k", params, ("join_top_k", i))

    def warmup(self):
        return [self._make(-3), self._make(-1)]

    def request(self, i):
        return self._make(i)

    def check(self, replies):
        from repro.extensions.join import join_top_k, similarity_join

        wrong = []
        joins = sorted(((r.params["theta"], r, res) for r, res in replies
                        if r.op == "join"), key=lambda e: e[0])
        topks = [(r, res) for r, res in replies if r.op == "join_top_k"]
        # Every reply: matches grow with theta, and every closest-pair
        # list is a prefix of the longest one.
        prev = set()
        for theta, req, res in joins:
            cur = {tuple(p) for p in res["matches"]}
            if not prev <= cur or res["matches"] != sorted(res["matches"]):
                wrong.append((req, f"join at theta {theta}: not monotone"))
            prev = cur
        longest = max((res for _, res in topks), key=len, default=[])
        ranked = [(e["distance"], tuple(e["pair"])) for e in longest]
        for req, res in topks:
            got = [(e["distance"], tuple(e["pair"])) for e in res]
            if len(got) != req.params["k"] or got != ranked[:len(got)]:
                wrong.append((req, "closest pairs not a canonical prefix"))
        # Sampled replies against the serial references.
        count = self.scale["join_checks"]
        sample = _sample([(r, res) for _, r, res in joins], count, self.seed)
        for req, res in sample:
            want, _ = similarity_join(self.left, self.right,
                                      req.params["theta"], "haversine")
            got = [tuple(p) for p in res["matches"]]
            if got != [tuple(p) for p in want]:
                wrong.append((req, f"join: {len(got)} vs {len(want)} matches"))
        if topks:
            req, res = max(topks, key=lambda e: e[0].params["k"])
            want = join_top_k(self.left, self.right, req.params["k"],
                              "haversine")
            got = [(e["distance"], tuple(e["pair"])) for e in res]
            if got != [(float(d), tuple(p)) for d, p in want]:
                wrong.append((req, f"join_top_k: got {got} want {want}"))
        verified = len(joins) + len(topks)
        return verified, wrong


WORKLOADS = {
    "motif_discover": MotifDiscover(
        name="motif_discover",
        why=("the paper's own problem (Fig 18): time in core and the dG "
             "oracle, no corpus key, index, pool or pairwise DFD work"),
        connections=1, engine_workers=1,
    ),
    "corpus_query": CorpusQuery(
        name="corpus_query",
        why=("little real work per request after pruning, so per-request "
             "overhead dominates; hot repeats exercise cache and coalescing"),
        connections=2, engine_workers=1,
        # Without think time the two closed-loop clients lock into phase
        # patterns (one request landing in the other's delayed-ACK wait,
        # or not) that move the median by a third from run to run.
        think_s=0.02,
    ),
    "corpus_join": CorpusJoin(
        name="corpus_join",
        why=("the only load on the fork pool, shared memory, tree dual "
             "traversal and per-pair dfd_decision; two indexes to build"),
        connections=1, engine_workers=2,
        # Result cache off: every closest-pair request pays its scan, as
        # in the hierarchical_index row (k repeats would otherwise hit).
        engine_kwargs={"result_cache_size": 0},
    ),
}
