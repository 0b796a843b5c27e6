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
            level, point_tables, seed = self._build_level(oracle, space, tau)
            bsf, best = float(bsf0), best0
            if seed.value < bsf:
                # Unwitnessed, as a GUB: the loop's threshold is nudged
                # one ulp, so a candidate at the seed still wins ties.
                bsf, best = seed.value, None
            bsf, best, survivors = self._prune_groups(
                level, space, bsf, best, stats, deadline
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
        charge_space(stats, oracle, space, level, blocks, bounds, seed)
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
        oracle, space: SearchSpace, tau: int, k: int = 1
    ) -> Tuple[GroupLevel, BoundTables, "LockstepSeed"]:
        """The group level, with the min-only sub-level at
        :func:`_sub_tau` as its ``sub`` (``None`` when that is ``tau``),
        the point-level bound tables and the :class:`LockstepSeed` of
        the ``k``-th best subset, in one scan.

        Reads the ground matrix once, in blocks of whole ``tau``-row
        groups (a metric call per block on a lazy oracle, a view on a
        dense one), and feeds each block to both the block min/max
        reductions (:func:`~repro.core.grouping.band_levels`) and the
        ``Cmin``/``Rmin`` stream: the paper's one-row-scan idea (ii)
        applied to the bound phase.  The level and the tables equal
        :meth:`GroupLevel.from_matrix` and :meth:`BoundTables.build`
        bit for bit, the sub-level's minima those of
        :meth:`GroupLevel.from_matrix` at ``tau'``.  The seed reads the
        same blocks; it is ``+inf`` unless the oracle's ``values`` cells
        are its blocks' bit for bit (``exact_cells``) and a window of
        ``xi + 2`` rows fits in a block.
        """
        n, m = space.n_rows, space.n_cols
        sub = _sub_tau(tau)
        scan = TableScan(space)
        step = _scan_rows(tau, m)
        # The seed needs the DP's own cells and a window within a block.
        fits = getattr(oracle, "exact_cells", False) and space.xi + 2 <= step
        seed = LockstepSeed(space, k if fits else 0, step * m)
        bands = [
            _fold_rows(oracle, scan, seed, r0, min(n, r0 + step), tau, sub,
                       space.mode)
            for r0 in range(0, n, step)
        ]
        seed.finish()
        level = GroupLevel.from_bands([b[:2] for b in bands], n, m, tau, space.mode)
        if sub < tau:
            level.sub = GroupLevel.from_bands(
                [(b[2], None) for b in bands], n, m, sub, space.mode
            )
        return level, scan.tables(), seed


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
    seed: "LockstepSeed",
) -> None:
    """GTM*'s space model, for a search over :func:`level_sources`.

    It charges what the search holds: the level and sub-level, the
    ordered sub-blocks, the point tables, the subset bounds the cursor
    opened and the rows the lazy oracle's cache holds (none with the
    built-in metrics, which read single cells); and the larger of the
    level scan's transients (its block, and the seed's kept cells at
    their peak), which die with the scan, and the sweep frontier's peak
    buffers (``stats.sweep_bytes``), which come after it.
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
        + max(
            3 * 8 * scan_rows * space.n_cols   # level-plus-tables scan
            + seed.peak_bytes,                 # the seed's kept cells
            stats.sweep_bytes,                 # sweep frontier buffers
        ),
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


def _fold_rows(oracle, scan: TableScan, seed: "LockstepSeed", r0: int,
               r1: int, tau: int, sub: int, mode: str):
    """Read rows ``r0 .. r1 - 1`` of ``dG`` once (in self mode only their
    upper trapezoid): fold them into ``scan`` and ``seed`` and return
    their group rows.  One masked copy serves all three; the block dies
    on return, so the scan's peak is one block, its masked copy and the
    metric's temporaries, besides the seed's carried windows."""
    block, upper = candidate_rows(oracle, r0, r1, mode)
    scan.add(r0, block, upper)
    bands = band_levels(upper, r0, tau, sub, mode)
    seed.add(r0, upper)  # last: it masks ``upper`` further
    return bands


class LockstepSeed:
    """The ``k``-th smallest lockstep coupling over the feasible starts,
    folded from the level scan's row blocks.

    ``U(i, j) = max_{t <= xi + 1} dG(i + t, j + t)`` is the largest
    cell on the lockstep walk of subset ``(i, j)``'s shortest candidate
    ``(i, i + xi + 1, j, j + xi + 1)``, so the subset's best is at most
    ``U`` -- exactly in floats when the DP reads the same cells (it only
    selects among them).  Distinct starts are distinct subsets, so the
    ``k``-th smallest ``U`` (:attr:`value`) bounds the ``k``-th best
    subset: GTM*'s first best-so-far (``k = 1``) and top-k's first cut.

    The first block reads the windows that end in it whole
    (:meth:`_first`).  From then on a window can lower the value only
    if every cell on it is below the value, so each block (:meth:`add`)
    keeps just its cells below the value (one ulp up), and
    :meth:`_fold` reads the windows whose cells are all kept once the
    scan has passed them, the ones crossing blocks included.  It folds
    when the kept cells pass ``cap`` (half a scan block: 16 bytes a
    cell) and at the end (:meth:`finish`), and keeps after it only the
    cells below the value in the rows a later window can reach.  Should
    they still pass ``cap``, the lowest ``cap`` stay, and the value is
    the ``k``-th smallest over the windows still whole: a bound either
    way.  :attr:`peak_bytes` is the kept cells' peak between blocks, at
    most ``16 * cap`` bytes.  ``k = 0`` reads nothing: ``+inf``.
    """

    def __init__(self, space: SearchSpace, k: int, block_cells: int) -> None:
        self.space = space
        self.k = k
        self.width = space.xi + 2  # cells on a window
        self.cap = max(1, block_cells // 2)
        self.value = self.limit = math.inf
        self.found = np.empty(0)  # the k least U read
        # Kept cells: (diagonal-major key, value) chunks, the blocks'
        # still as (flat index, value, first row, first column, columns).
        self._keyed: List[Tuple[np.ndarray, np.ndarray]] = []
        self._blocks: List[Tuple[np.ndarray, np.ndarray, int, int, int]] = []
        self._held = 0
        self._rows = 0  # rows scanned
        self._next = 0  # the first start row whose window is unread
        self.peak_bytes = 0
        self._t = np.arange(self.width)[:, None]
        self._bands = {}  # the band masks, per block shape

    def add(self, r0: int, upper: np.ndarray) -> None:
        """Fold rows ``r0 ..`` in: ``upper`` as :func:`candidate_rows`
        returns it (C-contiguous), after :func:`band_levels`.  In self
        mode its cells on diagonals ``j - i < xi + 2`` (no window's)
        become ``+inf``, in place."""
        if not self.k:
            return
        rows, cols = upper.shape
        first = 0
        if self.space.mode == SELF_MODE:
            first = r0
            band = upper[:, : rows + self.width - 1]
            mask = self._bands.get(band.shape)
            if mask is None:
                mask = self._bands[band.shape] = np.tri(
                    *band.shape, self.width - 1, dtype=bool)
            band[mask] = np.inf
        flat = upper.reshape(-1)
        if not r0:
            self._first(flat, rows, cols, first)
        hit = (flat < self.limit).nonzero()[0]
        self._blocks.append((hit, flat[hit], r0, first, cols))
        self._held += hit.shape[0]
        self._rows = r0 + rows
        if self._held > self.cap:
            self._fold()
        self.peak_bytes = max(self.peak_bytes, 16 * self._held)

    def finish(self) -> None:
        """Read the windows left once the scan is done."""
        if self._held:
            self._fold(last=True)

    def _first(self, flat: np.ndarray, rows: int, cols: int,
               first: int) -> None:
        """Read the first block's windows that end in it, all at once:
        maxima over diagonal runs of doubling length, a diagonal step
        being ``cols + 1`` cells on the flat block."""
        space, w = self.space, self.width
        starts = min(rows - w + 1, space.i_max + 1)
        width = space.n_cols - w - first + 1  # start columns
        if starts <= 0 or width <= 0:
            return
        u = flat[: (starts + w - 1) * cols]  # to the last window's end
        span = 1
        while span < w:
            step = min(span, w - span) * (cols + 1)
            u = np.maximum(u[:-step], u[step:])
            span += step // (cols + 1)
        # Start (r, c) sits at r * cols + c, below starts * cols -
        # (w - 1), the length left: windows past the last column
        # wrapped into the next row, but start at no column kept.
        u = np.lib.stride_tricks.as_strided(
            u, (starts, width), (cols * u.itemsize, u.itemsize)).ravel()
        if u.shape[0] > self.k:
            u = np.partition(u, self.k - 1)[: self.k]
        self._offer(u[u < math.inf])
        self._next = starts

    def _fold(self, last: bool = False) -> None:
        """Read every window whose cells are all kept and whose last row
        has been scanned, then drop the cells no later window needs
        (all of them when the scan is done)."""
        space, w, n = self.space, self.width, self.space.n_rows
        if self._blocks:
            # Diagonal-major keys, (j - i) * n + i, of the blocks' cells.
            shape = np.array([b[2:] for b in self._blocks])
            counts = [b[0].shape[0] for b in self._blocks]
            hit = np.concatenate([b[0] for b in self._blocks])
            r0, first, cols = np.repeat(shape, counts, axis=0).T
            i = (hit / cols).astype(np.int64)  # exact: hit < 2 ** 53
            key = (hit - i * (cols + 1) + first - r0) * n + i + r0
            self._keyed.append(
                (key, np.concatenate([b[1] for b in self._blocks])))
            self._blocks = []
        key = np.concatenate([kept[0] for kept in self._keyed])
        cells = np.concatenate([kept[1] for kept in self._keyed])
        # Sort the keys with their positions packed below them.
        bits = max(1, int(key.shape[0]).bit_length())
        packed = np.sort((key << bits) | np.arange(key.shape[0]))
        key = packed >> bits
        cells = cells[packed & ((1 << bits) - 1)]
        # A window is w kept cells on consecutive rows of one diagonal.
        starts = max(key.shape[0] - w + 1, 0)
        whole = np.flatnonzero(key[w - 1:] == key[:starts] + (w - 1))
        diag, i = np.divmod(key[whole], n)
        ends = self._rows - w + 1  # windows from rows below end scanned
        whole = whole[(i >= self._next) & (i < min(ends, space.i_max + 1))
                      & (i + diag <= space.n_cols - w)]
        if whole.shape[0]:
            self._offer(cells[self._t + whole].max(axis=0))
        self._next = max(self._next, ends)
        if last:
            self._keyed, self._held = [], 0
            return
        keep = (key % n >= self._next) & (cells < self.limit)
        key, cells = key[keep], cells[keep]
        if cells.shape[0] > self.cap:
            low = np.sort(np.argpartition(cells, self.cap - 1)[: self.cap])
            key, cells = key[low], cells[low]
        self._keyed = [(key, cells)]
        self._held = cells.shape[0]

    def _offer(self, u: np.ndarray) -> None:
        found = np.concatenate([self.found, u])
        if found.shape[0] > self.k:
            found = np.partition(found, self.k - 1)[: self.k]
        self.found = found
        if found.shape[0] == self.k:
            self.value = float(found.max())
            self.limit = float(np.nextafter(self.value, math.inf))


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
