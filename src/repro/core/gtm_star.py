"""GTM* -- the space-efficient GTM variant (paper Section 5.5).

Three ideas reduce the space complexity to ``O(max{(n/tau)^2, n})``:

(i)   ground distances are computed on-the-fly (no precomputed ``dG``
      matrix) through a :class:`~repro.distances.ground.LazyGroundMatrix`
      with a bounded row cache;
(ii)  the DFD dynamic program keeps only two rows at a time (the scalar
      kernel in :mod:`repro.core.dp` already does);
(iii) the grouping loop runs exactly **once** at the configured ``tau``
      instead of halving, so only one ``(n/tau)^2`` pair of block
      matrices ever exists.

Because only one grouping level prunes, the number of surviving group
pairs ``c'`` is expected to exceed GTM's ``c`` (Section 5.5), trading
time for space -- exactly the behaviour Figures 18-19 report.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from .bounds import (
    ROW_BLOCK_CELLS,
    BoundTables,
    TableScan,
    relaxed_subset_bounds_for_pairs,
)
from .btm import run_best_first
from .brute import MotifTimeout
from .dp import STACK_SWEEP_BYTES, Best
from .grouping import (
    GroupBoundTables,
    GroupLevel,
    feasible_group_pairs,
    group_dfd_bounds,
    pattern_bounds_for_pairs,
    block_minmax,
)
from .gtm import expand_pairs_to_subsets
from .problem import SearchSpace
from .stats import PhaseTimer, SearchStats


class GTMStar:
    """Space-efficient grouping-based motif discovery (Section 5.5).

    Parameters
    ----------
    tau:
        Group size for the single grouping pass.
    use_gub:
        Disable to ablate ``GUB_DFD`` bsf-tightening.
    timeout:
        Optional wall-clock budget in seconds.
    """

    name = "gtm_star"

    #: Optional ``(level, space, pairs) -> (i_idx, j_idx)`` hook; same
    #: contract as :attr:`repro.core.gtm.GTM.subset_expander`.  The
    #: engine wires a per-``(level, space)`` expansion cache through
    #: here so repeated searches over the same corpus expand each
    #: surviving pair set once.  ``None`` means
    #: :func:`~repro.core.gtm.expand_pairs_to_subsets`.
    subset_expander = None

    def __init__(
        self,
        tau: int = 32,
        use_gub: bool = True,
        cache_rows: int = 256,
        timeout: Optional[float] = None,
    ) -> None:
        if tau < 2:
            raise ValueError("tau must be at least 2")
        if cache_rows < 1:
            raise ValueError("cache_rows must be at least 1")
        self.tau = tau
        self.use_gub = use_gub
        self.cache_rows = cache_rows
        self.timeout = timeout

    def search(
        self,
        oracle,
        space: SearchSpace,
        stats: Optional[SearchStats] = None,
        bsf0: float = math.inf,
        best0: Best = None,
    ) -> Tuple[float, Best]:
        """Return ``(distance, (i, ie, j, je))`` of the motif.

        ``oracle`` should be a :class:`LazyGroundMatrix`; a dense oracle
        also works (the space benefit is then forfeited).  ``bsf0`` /
        ``best0`` seed the search with an external threshold (see
        :meth:`repro.core.btm.BTM.search`); a correct seed only reduces
        work, never changes the answer.
        """
        stats = stats if stats is not None else SearchStats()
        stats.algorithm = self.name
        started_at = time.perf_counter()
        deadline = None if self.timeout is None else started_at + self.timeout
        tau = min(self.tau, max(2, space.n_rows // 2))

        with PhaseTimer(stats, "time_grouping"):
            level, point_tables = self._build_level(oracle, space, tau)
            pairs = feasible_group_pairs(level, space)
            tables_g = GroupBoundTables.build(level, space.xi)
            lbs = pattern_bounds_for_pairs(level, tables_g, pairs)
            order = np.argsort(lbs, kind="stable")
            bsf = float(bsf0)
            best: Best = best0
            witnessed = best0 is not None
            survivors: List[Tuple[int, int]] = []
            stats.group_pairs_considered += len(pairs)
            for count, k in enumerate(order):
                lb = float(lbs[k])
                if lb > bsf or (witnessed and lb >= bsf):
                    stats.group_pairs_pruned_pattern += len(pairs) - count
                    break
                u, v = pairs[k]
                glb, gub = group_dfd_bounds(level, space, u, v, bsf=bsf)
                if glb > bsf or (witnessed and glb >= bsf):
                    stats.group_pairs_pruned_glb += 1
                    continue
                survivors.append((u, v))
                if self.use_gub and gub < bsf:
                    bsf = gub
                    best = None
                    witnessed = False
                    stats.gub_tightenings += 1
                if deadline is not None and count % 64 == 0:
                    if time.perf_counter() > deadline:
                        raise MotifTimeout(f"GTM* exceeded {self.timeout:.1f}s")
            survivors.sort()
            stats.group_levels[tau] = len(survivors)

        expand = self.subset_expander or expand_pairs_to_subsets
        i_idx, j_idx = expand(level, space, survivors)
        with PhaseTimer(stats, "time_bounds"):
            bounds = relaxed_subset_bounds_for_pairs(
                space, oracle, point_tables, i_idx, j_idx
            )
        bsf, best = run_best_first(
            oracle, space, bounds, point_tables, stats, bsf=bsf, best=best,
            timeout=self.timeout, started_at=started_at,
        )
        g = level.n_row_groups * level.n_col_groups
        cache_rows = min(getattr(oracle, "cache_rows", 0), space.n_rows)
        scan_rows = min(_scan_rows(tau, space.n_cols), space.n_rows)
        stats.space_bytes = max(
            stats.space_bytes,
            2 * 8 * g                              # gmin / gmax
            + 8 * 4 * space.n_cols                 # point-level tables
            + 8 * 6 * len(bounds)                  # surviving subset bounds
            + 8 * cache_rows * space.n_cols        # lazy row cache
            + 3 * 8 * scan_rows * space.n_cols     # level-plus-tables scan
            + STACK_SWEEP_BYTES,                   # stacked DP sweep
        )
        return bsf, best

    @staticmethod
    def _build_level(
        oracle, space: SearchSpace, tau: int
    ) -> Tuple[GroupLevel, BoundTables]:
        """The group level and the point-level bound tables, in one scan.

        Reads the ground matrix once, in blocks of whole ``tau``-row
        groups (a metric call per block on a lazy oracle, a view on a
        dense one), and feeds each block to both the ``tau x tau``
        min/max reductions and the ``Cmin``/``Rmin`` stream: the
        paper's one-row-scan idea (ii) applied to the bound phase.
        Both results equal :meth:`GroupLevel.from_matrix` and
        :meth:`BoundTables.build` bit for bit.
        """
        n, m = space.n_rows, space.n_cols
        scan = TableScan(space)
        step = _scan_rows(tau, m)
        bands = [
            _fold_rows(oracle, scan, r0, min(n, r0 + step), tau, space.mode)
            for r0 in range(0, n, step)
        ]
        level = GroupLevel.from_bands(bands, n, m, tau, space.mode)
        return level, scan.tables()


def _scan_rows(tau: int, m: int) -> int:
    """Rows per block of :meth:`GTMStar._build_level`: whole groups of
    about ``ROW_BLOCK_CELLS`` cells, one group at least."""
    return tau * max(1, ROW_BLOCK_CELLS // (tau * m))


def _fold_rows(oracle, scan: TableScan, r0: int, r1: int, tau: int, mode: str):
    """Read ``dG[r0:r1]`` once: fold it into ``scan`` and return its
    group rows.  The block dies on return, so the scan's peak is one
    block, one masked copy of it and the metric's temporaries."""
    block = oracle.rows(r0, r1)
    scan.add(r0, block)
    return block_minmax(block, r0, tau, mode)
