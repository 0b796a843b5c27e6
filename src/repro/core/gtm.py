"""GTM -- grouping-based trajectory motif discovery (paper Algorithm 3).

Multi-level framework (Figure 9):

1. partition the trajectory into groups of ``tau`` samples and compute
   the block min/max ground distances;
2. prune group pairs with the O(1) pattern bounds (Step 3);
3. for surviving pairs compute the tighter group-DFD bounds: prune with
   ``GLB_DFD`` and tighten ``bsf`` with ``GUB_DFD`` (Step 4);
4. halve ``tau`` and repeat on the survivors' children until ``tau``
   reaches 1 (here: 2, after which groups are split into point-level
   candidate subsets);
5. run the BTM best-first loop on the surviving candidate subsets with
   the carried-over ``bsf`` (Step 5).

Every pruning step is safe (Lemmas 3-4 plus the witness rule of
:mod:`repro.core.btm`), so GTM returns the exact motif.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from .bounds import BoundTables, relaxed_subset_bounds_for_pairs
from .btm import run_best_first
from .brute import MotifTimeout
from .dp import Best
from .grouping import (
    GroupBoundTables,
    GroupLevel,
    children_pairs,
    feasible_group_pairs,
    group_dfd_bounds,
    pattern_bounds_for_pairs,
)
from .problem import SELF_MODE, SearchSpace
from .stats import PhaseTimer, SearchStats


class GTM:
    """Grouping-based trajectory motif discovery (Algorithm 3).

    Parameters
    ----------
    tau:
        Initial group size; halved each level (paper default 32,
        Figure 17 studies the sensitivity).
    min_tau:
        Group size at which the multi-level loop stops and the
        point-level phase starts (2 = paper behaviour).
    use_gub:
        Disable to ablate the ``GUB_DFD`` bsf-tightening (Step 4).
    dfd_bound_max_groups:
        Run the ``GLB_DFD``/``GUB_DFD`` dynamic program only on levels
        with at most this many groups.  At fine granularities the group
        DP costs as much as the point-level DP it is meant to avoid (a
        CPython constant-factor effect); coarse levels keep the bsf
        tightening and the bulk pruning, fine levels fall back to the
        O(1) pattern bounds.  Purely a performance guard -- skipping a
        bound never affects exactness.
    timeout:
        Optional wall-clock budget in seconds.
    """

    name = "gtm"

    #: Optional ``(dmat, tau, mode) -> GroupLevel`` hook.  The engine
    #: wires its cached (and pool-sharded) level builder through here
    #: so the seeded witness-resolution pass reuses the levels the
    #: parallel grouping phase already built instead of re-reducing
    #: the O(n^2) matrix per level.  ``None`` means
    #: :meth:`GroupLevel.from_matrix` (the plain serial behaviour).
    level_builder = None

    #: Optional ``(level, space, pairs) -> (i_idx, j_idx)`` hook.  The
    #: engine routes this through a per-``(level, space)`` cache so the
    #: grouped scan and the seeded resolution pass expand each tau's
    #: surviving pair set once instead of re-running the lexsorted
    #: enumeration.  ``None`` means :func:`expand_pairs_to_subsets`.
    subset_expander = None

    def __init__(
        self,
        tau: int = 32,
        min_tau: int = 2,
        use_gub: bool = True,
        dfd_bound_max_groups: int = 96,
        timeout: Optional[float] = None,
    ) -> None:
        if tau < 2:
            raise ValueError("tau must be at least 2")
        if min_tau < 2:
            raise ValueError("min_tau must be at least 2")
        self.tau = tau
        self.min_tau = min_tau
        self.use_gub = use_gub
        self.dfd_bound_max_groups = dfd_bound_max_groups
        self.timeout = timeout

    # ------------------------------------------------------------------
    def search(
        self,
        oracle,
        space: SearchSpace,
        stats: Optional[SearchStats] = None,
        bsf0: float = math.inf,
        best0: Best = None,
    ) -> Tuple[float, Best]:
        """Return ``(distance, (i, ie, j, je))`` of the motif.

        ``bsf0`` / ``best0`` seed the search with an external threshold
        (see :meth:`repro.core.btm.BTM.search`); a correct seed only
        reduces work, never changes the answer.
        """
        if not hasattr(oracle, "array"):
            raise ValueError("GTM requires a dense ground matrix (see GTMStar)")
        stats = stats if stats is not None else SearchStats()
        stats.algorithm = self.name
        started_at = time.perf_counter()
        deadline = None if self.timeout is None else started_at + self.timeout
        dmat = oracle.array

        bsf = float(bsf0)
        best: Best = best0
        tau = min(self.tau, max(self.min_tau, space.n_rows // 2))
        pairs: Optional[List[Tuple[int, int]]] = None
        survivors: List[Tuple[int, int]] = []
        level: Optional[GroupLevel] = None
        build_level = self.level_builder or GroupLevel.from_matrix
        with PhaseTimer(stats, "time_grouping"):
            prev_tau = None
            while tau >= self.min_tau:
                level = build_level(dmat, tau, space.mode)
                if pairs is None:
                    pairs = feasible_group_pairs(level, space)
                else:
                    pairs = children_pairs(pairs, prev_tau, level, space)
                bsf, best, survivors = self._process_level(
                    level, space, pairs, bsf, best, stats, deadline
                )
                stats.group_levels[tau] = len(survivors)
                pairs = survivors
                if tau == self.min_tau:
                    break
                prev_tau = tau
                tau = max(tau // 2, self.min_tau)
        bsf, best, n_subsets = self._point_phase(
            oracle, space, level, survivors, bsf, best, stats, started_at
        )
        rows, cols = oracle.shape
        g = 0 if level is None else level.n_row_groups * level.n_col_groups
        stats.space_bytes = max(
            stats.space_bytes,
            8 * rows * cols      # dG
            + 2 * 8 * g          # gmin/gmax at the finest level
            + 8 * 4 * cols       # point-level bound tables
            + 8 * 6 * n_subsets,  # surviving subset bound arrays
        )
        return bsf, best

    # ------------------------------------------------------------------
    def _process_level(
        self,
        level: GroupLevel,
        space: SearchSpace,
        pairs: List[Tuple[int, int]],
        bsf: float,
        best: Best,
        stats: SearchStats,
        deadline: Optional[float],
    ) -> Tuple[float, Best, List[Tuple[int, int]]]:
        """Steps 3-4 of the framework on one grouping level."""
        tables = GroupBoundTables.build(level, space.xi)
        lbs = pattern_bounds_for_pairs(level, tables, pairs)
        order = np.argsort(lbs, kind="stable")
        witnessed = best is not None
        survivors: List[Tuple[int, int]] = []
        stats.group_pairs_considered += len(pairs)
        use_dfd_bounds = level.n_row_groups <= self.dfd_bound_max_groups
        for count, k in enumerate(order):
            lb = float(lbs[k])
            if lb > bsf or (witnessed and lb >= bsf):
                stats.group_pairs_pruned_pattern += len(pairs) - count
                break
            u, v = pairs[k]
            if not use_dfd_bounds:
                survivors.append((u, v))
                continue
            glb, gub = group_dfd_bounds(level, space, u, v, bsf=bsf)
            if glb > bsf or (witnessed and glb >= bsf):
                stats.group_pairs_pruned_glb += 1
                continue
            survivors.append((u, v))
            if self.use_gub and gub < bsf:
                # A valid candidate with dF <= gub exists inside this
                # pair, but its indices are unknown: bsf becomes
                # unwitnessed (see the witness rule in btm.py).
                bsf = gub
                best = None
                witnessed = False
                stats.gub_tightenings += 1
            if deadline is not None and count % 64 == 0:
                if time.perf_counter() > deadline:
                    raise MotifTimeout(f"GTM exceeded {self.timeout:.1f}s")
        survivors.sort()
        return bsf, best, survivors

    # ------------------------------------------------------------------
    def _point_phase(
        self,
        oracle,
        space: SearchSpace,
        level: Optional[GroupLevel],
        survivors: List[Tuple[int, int]],
        bsf: float,
        best: Best,
        stats: SearchStats,
        started_at: float,
    ) -> Tuple[float, Best, int]:
        """Step 5: BTM best-first loop on the surviving subsets.

        Returns ``(bsf, best, n_subsets)`` where ``n_subsets`` is the
        number of materialised subset-bound entries (space accounting).
        """
        if level is None:
            # Trajectory shorter than one group: fall back to plain BTM.
            with PhaseTimer(stats, "time_bounds"):
                tables = BoundTables.build(space, oracle)
                from .bounds import relaxed_subset_bounds

                bounds = relaxed_subset_bounds(space, oracle, tables)
        else:
            expand = self.subset_expander or expand_pairs_to_subsets
            i_idx, j_idx = expand(level, space, survivors)
            with PhaseTimer(stats, "time_bounds"):
                tables = BoundTables.build(space, oracle)
                bounds = relaxed_subset_bounds_for_pairs(
                    space, oracle, tables, i_idx, j_idx
                )
        bsf, best = run_best_first(
            oracle, space, bounds, tables, stats, bsf=bsf, best=best,
            timeout=self.timeout, started_at=started_at,
        )
        return bsf, best, len(bounds)


def expand_pairs_to_subsets(
    level: GroupLevel, space: SearchSpace, pairs: List[Tuple[int, int]]
):
    """Enumerate the feasible point-level subsets inside group pairs
    (a list of ``(u, v)`` or a ``(P, 2)`` array).

    One broadcast ``(P, tau, tau)`` feasibility mask over every pair's
    block, then one sort of the surviving ``(i, j)`` keys: ascending
    ``i``, then ``j`` (the pairs' blocks are disjoint, so keys are
    unique and the order is total).
    """
    if len(pairs) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    uv = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    offsets = np.arange(level.tau)
    i = (level.row_starts[uv[:, 0]][:, None] + offsets)[:, :, None]
    j = (level.col_starts[uv[:, 1]][:, None] + offsets)[:, None, :]
    row_end = np.minimum(level.row_ends[uv[:, 0]], space.i_max)
    col_end = np.minimum(level.col_ends[uv[:, 1]],
                         space.n_cols - space.xi - 2)
    ok = (i <= row_end[:, None, None]) & (j <= col_end[:, None, None])
    if space.mode == SELF_MODE:
        ok &= j >= i + space.xi + 2
    keys = np.broadcast_to(i, ok.shape)[ok] * space.n_cols
    keys += np.broadcast_to(j, ok.shape)[ok]
    keys.sort()
    return keys // space.n_cols, keys % space.n_cols
