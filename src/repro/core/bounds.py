"""Lower bound functions for DFD motif search (paper Sections 4.2-4.3).

Pattern-based bounds
--------------------
All bounds read the ground distance matrix ``dG`` along fixed patterns:

* ``LB_cell(i, j) = dG(i, j)`` -- every path of a candidate in subset
  ``CS_{i,j}`` starts at cell ``(i, j)`` (Observation 2).
* ``LB_row(i, j) = min_{i'} dG(i', j+1)`` and
  ``LB_col(i, j) = min_{j'} dG(i+1, j')`` -- the path must cross row
  ``j+1`` and column ``i+1`` (Observation 3); their max is the
  cross bound ``LB_cross^start`` (Eq. 4).
* band bounds (Eqs. 5-6) -- with minimum length ``xi`` the path must
  cross *each* of rows ``j+1 .. j+xi`` and columns ``i+1 .. i+xi``, so
  the max of the per-row / per-column bounds applies (Observation 4).

Relaxed O(1) bounds (Section 4.3)
---------------------------------
Precompute ``Rmin[j] = min_{i'} dG(i', j+1)`` and ``Cmin[i] =
min_{j'} dG(i+1, j')`` over ranges valid for *every* candidate subset
(ranges derived in :meth:`repro.core.problem.SearchSpace.rmin_range` /
``cmin_range``; the printed Eqs. 10-11 contain free variables, we follow
Lemma 2's proof).  Band bounds relax to sliding-window maxima over
``Rmin`` / ``Cmin``.  Everything amortises to O(1) per subset.

End-cell pruning (Eq. 9) -- a soundness fix
-------------------------------------------
The paper kills DP cell ``(ie, je)`` when
``max(LB_row(ie,je), LB_col(ie,je)) >= bsf``.  That is only valid for
candidates extending *strictly* beyond the cell in both axes.  A
candidate extending along a single axis (``ic = ie, jc > je`` or
``ic > ie, jc = je``) is constrained by just one of the two components,
so the max-form can prune an optimal single-axis extension.  We
therefore kill a cell only when ``min(component_row, component_col) >=
bsf``, treating a component as vacuously ``+inf`` when no extension in
that axis exists (e.g. ``je = n-1``).  This is proven safe for every
extension type and is validated against brute force in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .problem import SELF_MODE, SearchSpace

_INF = np.inf

#: Cell budget of one row block in :meth:`BoundTables.build` (and, at
#: least one whole group tall, in GTM*'s level-plus-tables scan).
ROW_BLOCK_CELLS = 1 << 14


def mask_lower(block: np.ndarray, fill: float) -> None:
    """Set the cells on or below the diagonal of a self-mode trapezoid
    (:func:`candidate_rows`) to ``fill``, in place.

    ``block`` holds matrix rows ``r0 ..`` from column ``r0`` on, so cell
    ``(r, c)`` sits at ``(r - r0, c - r0)`` and is on or below the
    diagonal when its local column is at most its local row.  Self-mode
    candidates only read cells strictly above it.
    """
    rows = block.shape[0]
    tri = block[:, :rows]
    tri[np.tri(rows, tri.shape[1], dtype=bool)] = fill


def upper_cells(block: np.ndarray, mode: str) -> np.ndarray:
    """The cells a candidate can read of a block in
    :func:`candidate_rows`' layout: in self mode a copy of ``block``
    with the cells on or below the diagonal at ``+inf``."""
    if mode != SELF_MODE:
        return block
    upper = block.copy()
    mask_lower(upper, _INF)
    return upper


def candidate_rows(oracle, r0: int, r1: int, mode: str):
    """Rows ``r0 .. r1 - 1`` of ``dG`` as ``(block, upper)``.

    Cross mode reads whole rows.  Self mode reads only the trapezoid
    from column ``r0`` on: no column left of ``r0`` holds a cell above
    the diagonal of these rows.  ``upper`` is :func:`upper_cells` of the
    block, one masked copy that every reduction of the rows shares.  A
    non-finite cell is refused by the oracle (the lazy one when it
    computes the rows, the dense one when it is built).
    """
    if mode == SELF_MODE:
        block = oracle.block(r0, r1, r0, oracle.shape[1])
    else:
        block = oracle.rows(r0, r1)
    return block, upper_cells(block, mode)


# ----------------------------------------------------------------------
# Relaxed bound tables (Section 4.3)
# ----------------------------------------------------------------------
@dataclass
class BoundTables:
    """Precomputed relaxed bound arrays for one search space.

    Attributes
    ----------
    rmin:
        ``Rmin[j]``: smallest ground distance in row ``j+1`` over the
        mode-appropriate column range; ``+inf`` where undefined.
    cmin:
        ``Cmin[i]``: smallest ground distance in column ``i+1`` over the
        mode-appropriate row range; ``+inf`` where undefined.
    rband_row:
        ``rLB_band^row(j) = max_{j' in [j, j+xi-1]} Rmin[j']``.
    rband_col:
        ``rLB_band^col(i) = max_{i' in [i, i+xi-1]} Cmin[i']``.
    """

    space: SearchSpace
    rmin: np.ndarray
    cmin: np.ndarray
    rband_row: np.ndarray
    rband_col: np.ndarray

    @classmethod
    def build(cls, space: SearchSpace, oracle) -> "BoundTables":
        """Stream the ground matrix in row blocks and fill all tables.

        Works identically for dense and lazy oracles: one block of at
        most :data:`ROW_BLOCK_CELLS` cells (one metric call for a lazy
        oracle, a view for a dense one; the upper trapezoid in self
        mode), its masked copy and O(n) running vectors live at a time.
        """
        n, m = space.n_rows, space.n_cols
        scan = TableScan(space)
        step = max(1, ROW_BLOCK_CELLS // m)
        for r0 in range(0, n, step):
            scan.add(r0, *candidate_rows(oracle, r0, min(n, r0 + step),
                                         space.mode))
        return scan.tables()

    # ------------------------------------------------------------------
    def start_cross(self, i: int, j: int) -> float:
        """``rLB_cross^start(i, j)`` (Eq. 12)."""
        return float(max(self.cmin[i], self.rmin[j]))

    def band(self, i: int, j: int) -> float:
        """``max(rLB_band^row(j), rLB_band^col(i))`` (Eqs. 14-15)."""
        return float(max(self.rband_col[i], self.rband_row[j]))

    def end_kill_threshold(self, ie: int, je: int) -> float:
        """Safe end-cell kill value: ``min(Cmin[ie], Rmin[je])``.

        See the module docstring: a DP cell may be killed once the
        *smaller* of the two relaxed components reaches ``bsf``, which
        covers single-axis extensions as well.
        """
        return float(min(self.cmin[ie], self.rmin[je]))


def _sliding_max(values: np.ndarray, window: int) -> np.ndarray:
    """Max over ``values[k : k+window]`` per position; +inf past the end."""
    n = values.shape[0]
    out = np.full(n, _INF)
    if window <= 1:
        return values.copy() if window == 1 else out
    if n >= window:
        view = np.lib.stride_tricks.sliding_window_view(values, window)
        out[: n - window + 1] = view.max(axis=1)
    return out


class TableScan:
    """The running state of a row stream that fills :class:`BoundTables`.

    Feed the ground matrix's rows in order, in blocks of any size read
    by :func:`candidate_rows` (:meth:`add`), then read the tables
    (:meth:`tables`).  Every entry is a minimum over matrix entries, so
    any split of the rows into blocks gives the same bits as a
    row-by-row stream.  In self mode the running column minima skip the
    columns left of each block: ``Rmin`` reads them only from column
    ``r0 + 2`` on, where every earlier row is above the diagonal.
    """

    def __init__(self, space: SearchSpace) -> None:
        self.space = space
        self.rmin = np.full(space.n_cols, _INF)
        self.cmin = np.full(space.n_rows, _INF)
        self.colmin = np.full(space.n_cols, _INF)

    def add(self, r0: int, block: np.ndarray, upper: np.ndarray) -> None:
        """Fold rows ``r0 ..`` of ``dG`` in, as :func:`candidate_rows`
        reads them: ``block`` from column ``r0`` on in self mode, and
        ``upper`` its masked copy."""
        rows = block.shape[0]
        first = 1 if r0 == 0 else 0  # row 0 has no Cmin[-1]
        # Cmin[r-1] = min dG[r, r+1 .. m-1] (self) or min dG[r, :].
        self.cmin[r0 + first - 1 : r0 + rows - 1] = upper[first:].min(axis=1)
        c0 = 0
        if self.space.mode == SELF_MODE:
            c0 = r0
            # Rmin[r+1] = min dG[0..r, r+2]: the column minimum before
            # the block, and down to row r within it, at column r + 2.
            diag = block[:, 2 : 2 + rows]
            width = diag.shape[1]
            below = np.tri(rows, width, -1, dtype=bool)  # rows past r
            np.minimum(
                np.where(below, _INF, diag).min(axis=0),
                self.colmin[r0 + 2 : r0 + 2 + width],
                out=self.rmin[r0 + 1 : r0 + 1 + width],
            )
        colmin = self.colmin[c0:]
        np.minimum(colmin, block.min(axis=0), out=colmin)

    def tables(self) -> BoundTables:
        space = self.space
        rmin, cmin = self.rmin, self.cmin
        if space.mode != SELF_MODE:
            rmin[: space.n_cols - 1] = self.colmin[1:]
        return BoundTables(
            space, rmin, cmin,
            _sliding_max(rmin, space.xi), _sliding_max(cmin, space.xi),
        )


# ----------------------------------------------------------------------
# Tight bounds (Section 4.2) -- O(n) / O(xi n) per subset
# ----------------------------------------------------------------------
class TightBounds:
    """Per-subset tight bounds computed directly from a dense ``dG``.

    These follow Eqs. 2-6 verbatim and are deliberately *not*
    precomputed: the point of Figures 13-14 is that tight bounds prune
    slightly better but cost O(n) / O(xi n) per candidate subset,
    whereas the relaxed bounds amortise to O(1).
    """

    def __init__(self, space: SearchSpace, dmat: np.ndarray) -> None:
        self.space = space
        self.dmat = np.asarray(dmat, dtype=np.float64)

    def row(self, i: int, j: int) -> float:
        """``LB_row(i, j)`` (Eq. 2)."""
        lo, hi = self.space.row_bound_range(i, j)
        if lo > hi or j + 1 > self.space.n_cols - 1:
            return _INF
        return float(self.dmat[lo : hi + 1, j + 1].min())

    def col(self, i: int, j: int) -> float:
        """``LB_col(i, j)`` (Eq. 3)."""
        lo, hi = self.space.col_bound_range(i, j)
        if lo > hi or i + 1 > self.space.n_rows - 1:
            return _INF
        return float(self.dmat[i + 1, lo : hi + 1].min())

    def start_cross(self, i: int, j: int) -> float:
        """``LB_cross^start(i, j) = max(LB_row, LB_col)`` (Eq. 4)."""
        return max(self.row(i, j), self.col(i, j))

    def end_cross(self, ie: int, je: int) -> float:
        """``LB_cross^end(ie, je)`` (Eq. 9) -- max form, for reporting."""
        return max(self.row(ie, je), self.col(ie, je))

    def end_kill_threshold(self, ie: int, je: int) -> float:
        """Safe end-cell kill value (min form; see module docstring)."""
        return min(self.row(ie, je), self.col(ie, je))

    def band_row(self, i: int, j: int) -> float:
        """``LB_band^row(i, j)`` (Eq. 5)."""
        best = 0.0
        for jp in range(j, j + self.space.xi):
            value = self.row(i, jp)
            if value > best:
                best = value
        return best

    def band_col(self, i: int, j: int) -> float:
        """``LB_band^col(i, j)`` (Eq. 6)."""
        best = 0.0
        for ip in range(i, i + self.space.xi):
            value = self.col(ip, j)
            if value > best:
                best = value
        return best

    def band(self, i: int, j: int) -> float:
        """``max(LB_band^row, LB_band^col)``."""
        return max(self.band_row(i, j), self.band_col(i, j))


# ----------------------------------------------------------------------
# Vectorised per-subset bound assembly
# ----------------------------------------------------------------------
@dataclass
class SubsetBounds:
    """Flat per-subset bound arrays over all feasible start pairs.

    ``lb_cell[k]``, ``lb_cross[k]``, ``lb_band[k]`` are the three bound
    classes for subset ``(i_idx[k], j_idx[k])``; ``combined`` is their
    max restricted to the enabled bound classes.
    """

    i_idx: np.ndarray
    j_idx: np.ndarray
    lb_cell: np.ndarray
    lb_cross: np.ndarray
    lb_band: np.ndarray
    combined: np.ndarray

    def __len__(self) -> int:
        return self.i_idx.shape[0]

    def order(self) -> np.ndarray:
        """Subset indices sorted ascending by combined bound (Alg. 2 L4)."""
        return np.argsort(self.combined, kind="stable")

    def order_blocks(self, block_size: int = 1024):
        """Yield the stable ascending order lazily, in sorted blocks.

        The concatenation of the yielded blocks equals :meth:`order`,
        *including tie order*: ties on ``combined`` resolve by original
        subset index, exactly as a stable argsort does.

        Each block costs one ``np.argpartition`` pass over the not-yet
        yielded candidates plus a sort of the block itself, so the
        total ordering cost scales with the number of subsets the
        best-first loop actually consumes rather than with the full
        O(n^2) candidate set.  Block sizes double each round, bounding
        the worst case (everything consumed) at O(N log N) -- the same
        as the eager sort it replaces.  A value sent into the generator
        (the loop's threshold, which :class:`LazySubsetBounds` reads)
        is ignored.
        """
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        combined = self.combined
        remaining = np.arange(combined.shape[0], dtype=np.int64)
        block = int(block_size)
        while remaining.size:
            if remaining.size <= block:
                sel, remaining = remaining, remaining[:0]
            else:
                values = combined[remaining]
                part = np.argpartition(values, block - 1)
                pivot = values[part[block - 1]]
                # Everything strictly below the pivot belongs to the
                # block; pivot-valued ties are admitted lowest-index
                # first so the block boundary never scrambles ties.
                select = values < pivot
                take_eq = block - int(np.count_nonzero(select))
                eq_positions = np.flatnonzero(values == pivot)
                select[eq_positions[:take_eq]] = True
                sel = remaining[select]
                remaining = remaining[~select]
            yield sel[np.argsort(combined[sel], kind="stable")]
            block *= 2


class LazySubsetBounds(SubsetBounds):
    """Subset bounds opened source by source as a best-first loop
    reaches them.

    The candidate subsets come in *sources* (GTM*'s sub-blocks), each
    with a floor no larger than any of its subsets' ``combined`` bound.
    ``floors`` lists them ascending, ``sizes`` their subset counts, and
    ``open_sources(lo, hi)`` returns the :class:`SubsetBounds` of
    sources ``lo .. hi - 1``.  ``limit`` is a threshold the loop never
    consumes a bound above (its best-so-far).  The arrays start empty
    and grow by appending as :meth:`order_blocks` opens sources, so a
    position once yielded stays valid; :attr:`opened` counts the open
    sources.
    """

    def __init__(self, floors: np.ndarray, sizes: np.ndarray,
                 open_sources: Callable[[int, int], SubsetBounds],
                 limit: float = _INF) -> None:
        index = np.empty(0, dtype=np.int64)
        empty = np.empty(0)
        super().__init__(index, index, empty, empty, empty, empty)
        self.floors = floors
        self.ends = np.cumsum(sizes)
        self.open_sources = open_sources
        self.limit = limit
        self.opened = 0

    def order_blocks(self, block_size: int = 1024):
        """Yield the sources' subsets in ``(combined, i, j)`` order, in
        sorted blocks, opening sources only as the order reaches them.

        A subset of bound ``b`` is yielded only once every source whose
        floor is ``<= b`` is open (``b`` below the first closed floor):
        no closed subset can then precede it, ties included, so the
        concatenated blocks are a prefix of a stable argsort of all the
        sources' subsets listed in ``(i, j)`` order.  Sources open in
        batches of doubling subset counts until the next block (of
        ``block_size`` subsets, doubling) is full, except that a source
        whose floor is above the limit never opens: the order ends
        where the loop can consume nothing more.  A value sent into the
        generator lowers the limit (the loop's threshold only falls).
        """
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        block = want = int(block_size)
        pending = np.empty(0, dtype=np.int64)
        sources = self.floors.shape[0]
        while True:
            while self.opened < sources and self.floors[self.opened] <= self.limit:
                ready = self.combined[pending] < self.floors[self.opened]
                if np.count_nonzero(ready) >= block:
                    break
                first = len(self)
                self._open(want)
                want *= 2
                pending = np.concatenate([pending, np.arange(first, len(self))])
            else:
                if self.opened < sources:
                    ready = self.combined[pending] < self.floors[self.opened]
                else:
                    ready = np.ones(pending.shape[0], dtype=bool)
            eligible = pending[ready]
            if not eligible.size:
                return
            chosen, taken = self._smallest(eligible, block)
            pending = np.concatenate([pending[~ready], eligible[~taken]])
            sent = yield chosen
            if sent is not None:
                self.limit = min(self.limit, sent)
            block *= 2

    def _open(self, want: int) -> None:
        """Open the next sources holding at least ``want`` subsets."""
        lo = self.opened
        base = self.ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(self.ends, base + want)) + 1
        hi = min(max(hi, lo + 1), self.floors.shape[0])
        more = self.open_sources(lo, hi)
        for name in ("i_idx", "j_idx", "lb_cell", "lb_cross", "lb_band",
                     "combined"):
            setattr(self, name,
                    np.concatenate([getattr(self, name), getattr(more, name)]))
        self.opened = hi

    def _smallest(self, positions: np.ndarray, count: int):
        """The ``count`` first of ``positions`` in ``(combined, i, j)``
        order, sorted, and the mask of those taken."""
        values = self.combined[positions]
        i, j = self.i_idx[positions], self.j_idx[positions]
        taken = np.ones(positions.shape[0], dtype=bool)
        if positions.shape[0] > count:
            pivot = values[np.argpartition(values, count - 1)[count - 1]]
            taken = values < pivot
            ties = np.flatnonzero(values == pivot)
            ties = ties[np.lexsort((j[ties], i[ties]))]
            taken[ties[: count - int(np.count_nonzero(taken))]] = True
        order = np.lexsort((j[taken], i[taken], values[taken]))
        return positions[taken][order], taken


def relaxed_subset_bounds(
    space: SearchSpace,
    oracle,
    tables: BoundTables,
    use_cell: bool = True,
    use_cross: bool = True,
    use_band: bool = True,
) -> SubsetBounds:
    """Assemble relaxed bounds for every feasible subset, in ``(i, j)`` order.

    The ``use_*`` switches support the Figure 15/16 bound-ablation
    experiments; a disabled class contributes ``-inf`` to ``combined``
    but its array is still populated for reporting.
    """
    i_all = np.arange(space.i_max + 1, dtype=np.int64)
    if space.mode == SELF_MODE:
        j_lo = i_all + space.xi + 2
    else:
        j_lo = np.zeros_like(i_all)
    counts = np.maximum(space.n_cols - space.xi - 1 - j_lo, 0)
    i_idx = np.repeat(i_all, counts)
    # j runs j_lo[i], j_lo[i] + 1, ... within each i's run.
    run_start = np.repeat(np.cumsum(counts) - counts, counts)
    j_idx = np.repeat(j_lo, counts) + np.arange(i_idx.shape[0]) - run_start
    return relaxed_subset_bounds_for_pairs(
        space, oracle, tables, i_idx, j_idx,
        use_cell=use_cell, use_cross=use_cross, use_band=use_band,
    )


def relaxed_subset_bounds_for_pairs(
    space: SearchSpace,
    oracle,
    tables: BoundTables,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    use_cell: bool = True,
    use_cross: bool = True,
    use_band: bool = True,
) -> SubsetBounds:
    """Relaxed bounds for an explicit subset list (GTM/GTM* phase 2).

    ``LB_cell`` is one elementwise oracle read
    (:meth:`~repro.distances.ground.LazyGroundMatrix.values`): a gather
    from a dense matrix, and for a lazy oracle just the asked cells, not
    the rows they sit in.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    lb_cell = oracle.values(i_idx, j_idx)
    lb_cross = np.maximum(tables.cmin[i_idx], tables.rmin[j_idx])
    lb_band = np.maximum(tables.rband_col[i_idx], tables.rband_row[j_idx])
    combined = _combine(lb_cell, lb_cross, lb_band, use_cell, use_cross, use_band)
    return SubsetBounds(i_idx, j_idx, lb_cell, lb_cross, lb_band, combined)


def tight_subset_bounds(
    space: SearchSpace,
    dmat: np.ndarray,
    use_cell: bool = True,
    use_cross: bool = True,
    use_band: bool = True,
) -> SubsetBounds:
    """Assemble tight (Section 4.2) bounds for every feasible subset.

    Deliberately pays the per-subset O(n) / O(xi n) cost that motivates
    the relaxed bounds; used by the Figure 13/14 comparison.
    """
    tight = TightBounds(space, dmat)
    total = space.count_start_pairs()
    i_idx = np.empty(total, dtype=np.int64)
    j_idx = np.empty(total, dtype=np.int64)
    lb_cell = np.empty(total)
    lb_cross = np.empty(total)
    lb_band = np.empty(total)
    k = 0
    for i, j in space.start_pairs():
        i_idx[k] = i
        j_idx[k] = j
        lb_cell[k] = dmat[i, j]
        lb_cross[k] = tight.start_cross(i, j)
        lb_band[k] = tight.band(i, j)
        k += 1
    combined = _combine(lb_cell, lb_cross, lb_band, use_cell, use_cross, use_band)
    return SubsetBounds(i_idx, j_idx, lb_cell, lb_cross, lb_band, combined)


def _combine(
    lb_cell: np.ndarray,
    lb_cross: np.ndarray,
    lb_band: np.ndarray,
    use_cell: bool,
    use_cross: bool,
    use_band: bool,
) -> np.ndarray:
    combined = np.zeros_like(lb_cell)
    if use_cell:
        np.maximum(combined, lb_cell, out=combined)
    if use_cross:
        np.maximum(combined, lb_cross, out=combined)
    if use_band:
        np.maximum(combined, lb_band, out=combined)
    return combined


def attribute_pruning(
    bounds: SubsetBounds,
    expanded: np.ndarray,
    bsf: float,
    use_cell: bool = True,
    use_cross: bool = True,
    use_band: bool = True,
) -> Tuple[int, int, int]:
    """Post-hoc Figure-15 attribution of pruned subsets to bound classes.

    A subset never expanded was pruned because its combined bound
    reached the final ``bsf``; it is credited to the first enabled class
    (cell, then cross, then band) whose bound alone suffices -- the same
    cascade order the paper uses in its breakdown.
    """
    lb_cell, lb_cross, lb_band = bounds.lb_cell, bounds.lb_cross, bounds.lb_band
    remaining = ~expanded
    by_cell = by_cross = by_band = 0
    if use_cell:
        hit = remaining & (lb_cell >= bsf)
        by_cell = int(hit.sum())
        remaining &= ~hit
    if use_cross:
        hit = remaining & (lb_cross >= bsf)
        by_cross = int(hit.sum())
        remaining &= ~hit
    if use_band:
        hit = remaining & (lb_band >= bsf)
        by_band = int(hit.sum())
        remaining &= ~hit
    # Any residue (possible only when bsf was never witnessed) is
    # credited to the cell class to keep the fractions summing to one.
    by_cell += int(remaining.sum())
    return by_cell, by_cross, by_band
