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

Sub-level and lazy opening
--------------------------
Idea (iii) keeps one level, but its ``tau``-blocks still hold ~100k
point subsets of which the best-first loop expands ~0.5%.  The scan
that builds the level therefore also keeps the block minima at a
divisor ``tau' = tau / 8`` of ``tau`` (:func:`_sub_tau`) as
``level.sub``, one more ``(n/tau')^2`` matrix from the same ground
cells.  The surviving group pairs are not expanded into point subsets
up front: each splits into ``tau' x tau'`` sub-blocks, each with a
floor no larger than any of its subsets' combined bound
(:func:`_sub_blocks`), and the best-first loop reads its subsets from a
:class:`~repro.core.bounds.LazySubsetBounds` that opens sub-blocks in
floor order only as the loop's next bound reaches them.  The loop sees
exactly the order an eager expansion would give, ties included, so the
answer and ``subsets_expanded`` are those of expanding everything; the
sub-blocks it never reaches are counted and credited in closed form
(:func:`_credit_closed`).  The group DFD bounds are batched over blocks
of pattern-ordered pairs (:meth:`GTMStar._prune_groups`).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from .bounds import (
    ROW_BLOCK_CELLS,
    BoundTables,
    LazySubsetBounds,
    TableScan,
    candidate_rows,
    relaxed_subset_bounds_for_pairs,
)
from .btm import run_best_first
from .brute import MotifTimeout
from .dp import Best
from .grouping import (
    GroupBoundTables,
    GroupLevel,
    GROUP_DFD_CELLS,
    band_levels,
    dfd_table_cells,
    feasible_group_pairs,
    pattern_bounds_for_pairs,
)
# Imported under the scalar kernel's name: perfbench's tracing wraps
# the module attribute ``group_dfd_bounds``, which stays what GTM* calls.
from .grouping import group_dfd_bounds_for_pairs as group_dfd_bounds
from .gtm import expand_pairs_to_subsets
from .problem import SELF_MODE, SearchSpace
from .stats import PhaseTimer, SearchStats


#: GTM*'s default group size; top-k scans its level at this ``tau``.
DEFAULT_TAU = 32

#: GTM*'s default lazy-oracle row cache; top-k shares the oracle.
DEFAULT_CACHE_ROWS = 256


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

    def __init__(
        self,
        tau: int = DEFAULT_TAU,
        use_gub: bool = True,
        cache_rows: int = DEFAULT_CACHE_ROWS,
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
        tau = level_tau(self.tau, space)

        with PhaseTimer(stats, "time_grouping"):
            level, point_tables = self._build_level(oracle, space, tau)
            bsf, best, survivors = self._prune_groups(
                level, space, float(bsf0), best0, stats, deadline
            )
            stats.group_levels[tau] = len(survivors)

        bounds, blocks, sizes = level_sources(
            oracle, space, level, point_tables, survivors, stats, limit=bsf
        )
        bsf, best = run_best_first(
            oracle, space, bounds, point_tables, stats, bsf=bsf, best=best,
            timeout=self.timeout, started_at=started_at,
        )
        _credit_closed(level.sub or level, point_tables,
                       blocks[bounds.opened:], sizes[bounds.opened:], bsf, stats)
        charge_space(stats, oracle, space, level, blocks, bounds)
        return bsf, best

    def _prune_groups(
        self,
        level: GroupLevel,
        space: SearchSpace,
        bsf: float,
        best: Best,
        stats: SearchStats,
        deadline: Optional[float],
    ) -> Tuple[float, Best, List[Tuple[int, int]]]:
        """Steps 3-4 on the one level: the surviving pairs, sorted.

        The group DFD bounds are computed a block of pattern-ordered
        pairs at a time (the pairs the current threshold still admits)
        and the serial prune/tighten loop replays over them.  The
        decisions are those of computing each bound inline: the GUB is
        exact either way, and the exact GLB falls on the same side of
        the threshold as the early-stopped one.
        """
        pairs = feasible_group_pairs(level, space)
        tables = GroupBoundTables.build(level, space.xi)
        lbs = pattern_bounds_for_pairs(level, tables, pairs)
        order = np.argsort(lbs, kind="stable")
        uv = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)[order]
        ascending = lbs[order]
        sorted_lbs = ascending.tolist()
        ends = np.cumsum(dfd_table_cells(level, space, uv[:, 0], uv[:, 1]))
        witnessed = best is not None
        survivors: List[Tuple[int, int]] = []
        stats.group_pairs_considered += len(pairs)
        glbs: List[float] = []
        gubs: List[float] = []
        start = 0
        for count, lb in enumerate(sorted_lbs):
            if lb > bsf or (witnessed and lb >= bsf):
                stats.group_pairs_pruned_pattern += len(pairs) - count
                break
            if count == start + len(glbs):
                start = count
                # The next pairs the threshold admits, GROUP_DFD_CELLS
                # table cells or one pair.
                room = (ends[count - 1] if count else 0) + GROUP_DFD_CELLS
                stop = max(count + 1, int(np.searchsorted(ends, room, "right")))
                stop = count + int(np.searchsorted(
                    ascending[count:stop], bsf, side="right"))
                glb_block, gub_block = group_dfd_bounds(
                    level, space, uv[count:stop, 0], uv[count:stop, 1]
                )
                glbs, gubs = glb_block.tolist(), gub_block.tolist()
            glb, gub = glbs[count - start], gubs[count - start]
            if glb > bsf or (witnessed and glb >= bsf):
                stats.group_pairs_pruned_glb += 1
                continue
            survivors.append((int(uv[count, 0]), int(uv[count, 1])))
            if self.use_gub and gub < bsf:
                bsf = gub
                best = None
                witnessed = False
                stats.gub_tightenings += 1
            if deadline is not None and count % 64 == 0:
                if time.perf_counter() > deadline:
                    raise MotifTimeout(f"GTM* exceeded {self.timeout:.1f}s")
        survivors.sort()
        return bsf, best, survivors

    @staticmethod
    def _build_level(
        oracle, space: SearchSpace, tau: int
    ) -> Tuple[GroupLevel, BoundTables]:
        """The group level, with the min-only sub-level at
        :func:`_sub_tau` as its ``sub`` (``None`` when that is ``tau``),
        and the point-level bound tables, in one scan.

        Reads the ground matrix once, in blocks of whole ``tau``-row
        groups (a metric call per block on a lazy oracle, a view on a
        dense one), and feeds each block to both the block min/max
        reductions (:func:`~repro.core.grouping.band_levels`) and the
        ``Cmin``/``Rmin`` stream: the paper's one-row-scan idea (ii)
        applied to the bound phase.  The level and the tables equal
        :meth:`GroupLevel.from_matrix` and :meth:`BoundTables.build`
        bit for bit, the sub-level's minima those of
        :meth:`GroupLevel.from_matrix` at ``tau'``.
        """
        n, m = space.n_rows, space.n_cols
        sub = _sub_tau(tau)
        scan = TableScan(space)
        step = _scan_rows(tau, m)
        bands = [
            _fold_rows(oracle, scan, r0, min(n, r0 + step), tau, sub, space.mode)
            for r0 in range(0, n, step)
        ]
        level = GroupLevel.from_bands([b[:2] for b in bands], n, m, tau, space.mode)
        if sub < tau:
            level.sub = GroupLevel.from_bands(
                [(b[2], None) for b in bands], n, m, sub, space.mode
            )
        return level, scan.tables()


def level_tau(tau: int, space: SearchSpace) -> int:
    """The group size GTM* configured at ``tau`` scans ``space`` at."""
    return min(tau, max(2, space.n_rows // 2))


def level_sources(
    oracle,
    space: SearchSpace,
    level: GroupLevel,
    tables: BoundTables,
    pairs: List[Tuple[int, int]],
    stats: SearchStats,
    limit: float = math.inf,
) -> Tuple[LazySubsetBounds, np.ndarray, np.ndarray]:
    """The group pairs' subsets as a best-first cursor over their
    sub-blocks: ``(bounds, blocks, sizes)``, the sub-blocks and their
    subset counts ascending by floor (:func:`_sub_blocks`).  Sub-blocks
    open as the loop's bound reaches them, never above ``limit`` or a
    threshold the loop sends."""
    sub_level = level.sub or level
    with PhaseTimer(stats, "time_bounds"):
        blocks, floors, sizes = _sub_blocks(level, sub_level, space, tables,
                                            pairs)

    def open_sources(lo: int, hi: int):
        with PhaseTimer(stats, "time_bounds"):
            i_idx, j_idx = expand_pairs_to_subsets(
                sub_level, space, blocks[lo:hi]
            )
            return relaxed_subset_bounds_for_pairs(
                space, oracle, tables, i_idx, j_idx
            )

    return LazySubsetBounds(floors, sizes, open_sources, limit=limit), blocks, sizes


def charge_space(
    stats: SearchStats,
    oracle,
    space: SearchSpace,
    level: GroupLevel,
    blocks: np.ndarray,
    bounds: LazySubsetBounds,
) -> None:
    """GTM*'s space model, for a search over :func:`level_sources`.

    It charges what the search holds: the level and sub-level, the
    ordered sub-blocks, the point tables, the subset bounds the cursor
    opened, the rows the lazy oracle's cache holds (none with the
    built-in metrics, which read single cells), the level scan's block
    and the sweep frontier's peak buffers (``stats.sweep_bytes``).
    """
    sub_level = level.sub or level
    g = level.n_row_groups * level.n_col_groups
    g_sub = 0 if sub_level is level else (
        sub_level.n_row_groups * sub_level.n_col_groups)
    held_rows = getattr(oracle, "cached_rows", 0)
    scan_rows = min(_scan_rows(level.tau, space.n_cols), space.n_rows)
    stats.space_bytes = max(
        stats.space_bytes,
        2 * 8 * g                              # gmin / gmax
        + 8 * g_sub                            # sub-level gmin
        + 8 * 4 * blocks.shape[0]              # ordered sub-blocks
        + 8 * 4 * space.n_cols                 # point-level tables
        + 8 * 6 * len(bounds)                  # opened subset bounds
        + 8 * held_rows * space.n_cols         # lazy row cache
        + 3 * 8 * scan_rows * space.n_cols     # level-plus-tables scan
        + stats.sweep_bytes,                   # sweep frontier buffers
    )


def _sub_tau(tau: int) -> int:
    """The sub-block size: the largest divisor of ``tau`` from 2 to
    ``max(2, tau // 8)``, else ``tau`` (no finer level)."""
    for sub in range(max(2, tau // 8), 1, -1):
        if tau % sub == 0:
            return sub
    return tau


def _scan_rows(tau: int, m: int) -> int:
    """Rows per block of :meth:`GTMStar._build_level`: whole groups of
    about ``ROW_BLOCK_CELLS`` cells, one group at least."""
    return tau * max(1, ROW_BLOCK_CELLS // (tau * m))


def _fold_rows(oracle, scan: TableScan, r0: int, r1: int, tau: int, sub: int,
               mode: str):
    """Read rows ``r0 .. r1 - 1`` of ``dG`` once (in self mode only their
    upper trapezoid): fold them into ``scan`` and return their group
    rows.  One masked copy serves both; the block dies on return, so
    the scan's peak is one block, its masked copy and the metric's
    temporaries."""
    block, upper = candidate_rows(oracle, r0, r1, mode)
    scan.add(r0, block, upper)
    return band_levels(upper, r0, tau, sub, mode)


def _sub_blocks(
    level: GroupLevel,
    sub_level: GroupLevel,
    space: SearchSpace,
    tables: BoundTables,
    survivors: List[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The surviving pairs' sub-blocks that hold a feasible subset, as
    ``(blocks, floors, sizes)`` ascending by floor.

    A subset's combined bound is ``max(dG[i, j], A[i], B[j])`` with
    ``A = max(Cmin, rLB_band^col)`` and ``B = max(Rmin, rLB_band^row)``.
    A sub-block's floor takes the sub-level's masked minimum (``0`` when
    not finite), the least ``A`` over its feasible rows and the least
    ``B`` over its feasible columns, each no larger than the matching
    term of any subset it holds, so the floor is at most every member's
    combined bound.
    """
    ratio = level.tau // sub_level.tau
    uv = np.asarray(survivors, dtype=np.int64).reshape(-1, 2)
    offsets = np.arange(ratio)
    shape = (uv.shape[0], ratio, ratio)
    ps = np.broadcast_to((uv[:, :1] * ratio + offsets)[:, :, None], shape).ravel()
    qs = np.broadcast_to((uv[:, 1:] * ratio + offsets)[:, None, :], shape).ravel()
    keep = (ps < sub_level.n_row_groups) & (qs < sub_level.n_col_groups)
    ps, qs = ps[keep], qs[keep]
    sizes = _subset_counts(sub_level, space, ps, qs)
    keep = sizes > 0
    ps, qs, sizes = ps[keep], qs[keep], sizes[keep]
    cell = sub_level.gmin[ps, qs]
    cell = np.where(np.isfinite(cell), cell, 0.0)
    row_min, col_min = _line_minima(
        sub_level, space,
        np.maximum(tables.cmin, tables.rband_col),
        np.maximum(tables.rmin, tables.rband_row),
    )
    floors = np.maximum(cell, np.maximum(row_min[ps], col_min[qs]))
    order = np.argsort(floors)
    blocks = np.stack([ps[order], qs[order]], axis=1)
    return blocks, floors[order], sizes[order]


def _subset_counts(
    sub_level: GroupLevel, space: SearchSpace, ps: np.ndarray, qs: np.ndarray
) -> np.ndarray:
    """Feasible start pairs per sub-block, in closed form per row
    offset (the predicate of :func:`~repro.core.gtm.expand_pairs_to_subsets`)."""
    i_lo = sub_level.row_starts[ps]
    i_hi = np.minimum(sub_level.row_ends[ps], space.i_max)
    j_lo = sub_level.col_starts[qs]
    j_hi = np.minimum(sub_level.col_ends[qs], space.n_cols - space.xi - 2)
    if space.mode != SELF_MODE:
        return np.maximum(i_hi - i_lo + 1, 0) * np.maximum(j_hi - j_lo + 1, 0)
    sizes = np.zeros(ps.shape[0], dtype=np.int64)
    for t in range(sub_level.tau):
        i = i_lo + t
        first = np.maximum(j_lo, i + space.xi + 2)
        sizes += np.where(i <= i_hi, np.maximum(j_hi - first + 1, 0), 0)
    return sizes


def _line_minima(
    sub_level: GroupLevel, space: SearchSpace, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per sub-row the least of ``rows`` over its feasible start rows,
    per sub-column the least of ``cols`` over its feasible start
    columns (``+inf`` where there are none)."""
    out = []
    for values, starts, last in (
        (rows, sub_level.row_starts, space.i_max),
        (cols, sub_level.col_starts, space.n_cols - space.xi - 2),
    ):
        minima = np.full(starts.shape[0], np.inf)
        live = starts <= last  # sub-group 0 at least: the space is feasible
        minima[live] = np.minimum.reduceat(values[: last + 1], starts[live])
        out.append(minima)
    return out[0], out[1]


def _credit_closed(
    sub_level: GroupLevel,
    tables: BoundTables,
    blocks: np.ndarray,
    sizes: np.ndarray,
    bsf: float,
    stats: SearchStats,
) -> None:
    """Count the sub-blocks never opened into the Figure-15 counters.

    Their subsets join ``subsets_total`` and are credited whole, per
    sub-block, by :func:`~repro.core.bounds.attribute_pruning`'s cascade
    over the sub-block's per-class minima: cell, then cross, then band,
    the residue to cell.
    """
    if not blocks.shape[0]:
        return
    space = tables.space
    ps, qs = blocks[:, 0], blocks[:, 1]
    cell = sub_level.gmin[ps, qs]
    cell = np.where(np.isfinite(cell), cell, 0.0)
    cmin, rmin = _line_minima(sub_level, space, tables.cmin, tables.rmin)
    bcol, brow = _line_minima(sub_level, space, tables.rband_col, tables.rband_row)
    cross = np.maximum(cmin[ps], rmin[qs])
    band = np.maximum(bcol[ps], brow[qs])
    by_cell = cell >= bsf
    by_cross = ~by_cell & (cross >= bsf)
    by_band = ~by_cell & ~by_cross & (band >= bsf)
    stats.subsets_total += int(sizes.sum())
    stats.pruned_by_cell += int(sizes[~by_cross & ~by_band].sum())
    stats.pruned_by_cross += int(sizes[by_cross].sum())
    stats.pruned_by_band += int(sizes[by_band].sum())
