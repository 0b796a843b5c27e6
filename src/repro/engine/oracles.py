"""Oracle and result caching for the engine (the cache layer).

Ground matrices, lazy row oracles, corpus artefacts and whole results are
pure functions of their content-fingerprinted inputs; the
:class:`OracleManager` owns the three LRU caches the engine serves them
from and centralises the build rules:

* **dense** -- the paper's precomputed ``dG`` (one O(n^2) metric
  sweep), shared by the dense-matrix algorithms' discover and the warm
  ``discover_many`` batches;
* **lazy** -- the row-on-demand oracle GTM* requires to honour its
  O(n)-space contract (never replaced by a dense build), shared by
  GTM* discover and top-k;
* **matrix** -- caller-owned matrices (``discover_matrix``).

The ``tables`` LRU holds the corpus workloads' per-corpus artefacts
(:mod:`repro.engine.corpus`).

The manager performs no pool or shared-memory work -- publication is
the executor's job (:mod:`repro.engine.executor`); keys come from the
planner (:mod:`repro.engine.planner`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.gtm_star import GTMStar
from ..distances.ground import DenseGroundMatrix, LazyGroundMatrix
from .cache import LRUCache, fingerprint_array
from . import planner


class OracleManager:
    """Content-addressed oracle / table / result caches."""

    def __init__(
        self,
        oracle_cache_size: int = 64,
        tables_cache_size: int = 64,
        result_cache_size: int = 256,
    ) -> None:
        self.oracles = LRUCache(oracle_cache_size)
        self.tables = LRUCache(tables_cache_size)
        self.results = LRUCache(result_cache_size)

    # ------------------------------------------------------------------
    # Ground oracles
    # ------------------------------------------------------------------
    def dense_oracle(self, traj_a, traj_b, metric):
        """Cached dense ground matrix for a trajectory (pair)."""
        key = planner.dense_oracle_key(traj_a, traj_b, metric)

        def build():
            points_b = traj_a.points if traj_b is None else traj_b.points
            return DenseGroundMatrix(metric.pairwise(traj_a.points, points_b))

        return self.oracles.get_or_build(key, build), key

    def matrix_oracle(self, matrix: np.ndarray):
        """Cached adapter over a caller-owned dense matrix."""
        key = ("matrix", fingerprint_array(matrix))
        return self.oracles.get_or_build(
            key, lambda: DenseGroundMatrix(matrix)
        ), key

    def lazy_oracle(self, traj_a, traj_b, metric, cache_rows: int):
        """Cached lazy row oracle (GTM*'s O(n)-space contract)."""
        key = planner.lazy_oracle_key(traj_a, traj_b, metric, cache_rows)

        def build():
            return LazyGroundMatrix(
                traj_a.points,
                None if traj_b is None else traj_b.points,
                metric=metric,
                cache_rows=cache_rows,
            )

        return self.oracles.get_or_build(key, build)

    def serial_oracle(self, algo, traj_a, traj_b, metric, matrix):
        """The oracle the plain serial path would build (parity).

        Mirrors :func:`repro.core.motif._build_oracle`: GTM* gets the
        lazy row oracle, everything else the dense matrix.
        """
        if matrix is not None:
            oracle, _ = self.matrix_oracle(matrix)
            return oracle
        if isinstance(algo, GTMStar):
            return self.lazy_oracle(traj_a, traj_b, metric, algo.cache_rows)
        oracle, _ = self.dense_oracle(traj_a, traj_b, metric)
        return oracle

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self, key) -> Optional[object]:
        """Cached result for ``key`` (None on miss or uncacheable key)."""
        if key is None:
            return None
        return self.results.get(key)

    def put_result(self, key, value) -> None:
        if key is not None:
            self.results.put(key, value)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Hit/miss/size accounting of the three engine caches."""
        return {
            "oracle": self.oracles.info(),
            "tables": self.tables.info(),
            "results": self.results.info(),
        }

    def clear(self) -> None:
        self.oracles.clear()
        self.tables.clear()
        self.results.clear()
