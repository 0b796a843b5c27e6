"""Shared dynamic-programming kernels for candidate-subset expansion.

BruteDP (Alg. 1), BTM (Alg. 2) and the final phase of GTM/GTM* all run
the same inner computation: for a candidate subset ``CS_{i,j}`` expand
the DFD dynamic program over the rectangle of end positions
``(ie, je)``, sharing work across the O(n^2) candidates with the same
start pair.  This module provides two kernel forms:

* per subset, :func:`expand_subset` picks between
  :func:`expand_subset_scalar` -- a row-major Python scan whose
  finished rows get vectorised candidate checks, end-cell kills and the
  early-termination test -- and :func:`expand_subset_wavefront`, an
  anti-diagonal NumPy sweep over a dense matrix.  BruteDP runs these
  with ``prune=False``: the full rectangle, one subset at a time;
* many subsets, :class:`SweepFrontier` keeps one anti-diagonal sweep
  running for a whole best-first loop
  (:func:`repro.core.btm.run_best_first`,
  :func:`repro.extensions.topk.scan_topk_entries`): each subset joins
  as a row at its own diagonal when the loop's cut admits it and leaves
  at its own depth, and the loop's sequential merge reads the
  per-subset results.  :func:`expand_subsets_stacked` is the one-shot
  form: admit every subset, run until all have finished.

With a lazy (row-on-demand) ground oracle the frontier evaluates only
the cells it sweeps, through the oracle's elementwise
:meth:`~repro.distances.ground.LazyGroundMatrix.values`: the paper's
GTM* computes each ``dG`` value per cell on the fly, and one metric
call per round of the whole frontier keeps that affordable in CPython.

All kernels implement the same semantics (validated against each other
and against brute force in the tests):

* best-so-far (``bsf``) candidate tracking over cells with
  ``ie - i > xi`` and ``je - j > xi``;
* optional end-cell kills using the *safe min-form* threshold
  ``min(Cmin[ie], Rmin[je]) >= bsf`` (see :mod:`repro.core.bounds`);
* optional early termination once an entire DP frontier is ``>= bsf``
  (every downstream value is a max including some frontier value).

With ``prune=False`` the per-subset kernels compute the full rectangle
-- that is exactly BruteDP's inner loop.
"""

from __future__ import annotations

from math import inf
from types import SimpleNamespace
from typing import Callable, Optional, Tuple

import numpy as np

from .problem import SELF_MODE, SearchSpace
from .stats import SearchStats

#: Rectangles up to this many cells use the scalar kernel by default.
SCALAR_AREA_LIMIT = 4096

#: Cell budget of a :class:`SweepFrontier`: rows times (reached buffer
#: columns plus a row's side arrays).  Admission waits while one more
#: row would not fit (a single row may exceed it alone).
STACK_BLOCK_CELLS = 1 << 14

#: Bytes of a frontier's three rolling diagonal buffers and per-row
#: side arrays, the figure the space models charge.  The per-round
#: temporaries are a few arrays of the round's valid cells.
STACK_SWEEP_BYTES = 3 * 8 * STACK_BLOCK_CELLS

Best = Optional[Tuple[int, int, int, int]]


def expand_subset(
    oracle,
    space: SearchSpace,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
    force_kernel: Optional[str] = None,
) -> Tuple[float, Best]:
    """Expand subset ``CS_{i,j}``; return the updated ``(bsf, best)``.

    Chooses the scalar kernel for small rectangles and for oracles
    without a dense ``array`` (it reads ``oracle.row``), the wavefront
    kernel otherwise.  ``force_kernel`` ("scalar" / "wavefront")
    overrides the heuristic (used by tests and ablations; "wavefront"
    needs a dense oracle).
    """
    ie_hi = space.ie_limit(i, j)
    je_hi = space.je_limit(i, j)
    area = (ie_hi - i + 1) * (je_hi - j + 1)
    dense = hasattr(oracle, "array")
    if force_kernel == "scalar" or not dense or (
        force_kernel is None and area <= SCALAR_AREA_LIMIT
    ):
        return expand_subset_scalar(
            oracle, space, i, j, bsf, best, cmin=cmin, rmin=rmin,
            prune=prune, stats=stats,
        )
    return expand_subset_wavefront(
        oracle.array, space, i, j, bsf, best, cmin=cmin, rmin=rmin,
        prune=prune, stats=stats,
    )


# ----------------------------------------------------------------------
# Scalar row-major kernel
# ----------------------------------------------------------------------
def expand_subset_scalar(
    oracle,
    space: SearchSpace,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, Best]:
    xi = space.xi
    ie_hi = space.ie_limit(i, j)
    je_hi = space.je_limit(i, j)
    width = je_hi - j + 1
    first_col = xi + 1  # first candidate column offset (je = j + xi + 1)
    use_kills = prune and cmin is not None and rmin is not None
    rmin_slice = rmin[j : je_hi + 1] if use_kills else None

    # Boundary row (ie = i): running maxima of dG[i, j..je_hi].
    prev_arr = np.maximum.accumulate(oracle.row(i)[j : je_hi + 1])
    if use_kills and cmin[i] >= bsf:
        prev_arr = np.where(rmin_slice >= bsf, inf, prev_arr)
    prev = prev_arr.tolist()

    cells = 0
    kills = 0
    checked = 0
    updates = 0
    for ie in range(i + 1, ie_hi + 1):
        g = oracle.row(ie)[j : je_hi + 1].tolist()
        cur = [0.0] * width
        # Boundary column (je = j): running max down the column.
        left = g[0] if g[0] > prev[0] else prev[0]
        cur[0] = left
        for c in range(1, width):
            p = prev[c]
            pd = prev[c - 1]
            m = pd if pd < p else p
            if left < m:
                m = left
            gc = g[c]
            left = gc if gc > m else m
            cur[c] = left
        cells += width
        # Candidate check: cells with ie - i > xi and je - j > xi.
        if ie - i > xi:
            tail = cur[first_col:]
            if tail:
                row_min = min(tail)
                checked += len(tail)
                if row_min < bsf:
                    c = first_col + tail.index(row_min)
                    bsf = row_min
                    best = (i, ie, j, j + c)
                    updates += 1
        if prune:
            # End-cell kills (safe min-form, applied after the check).
            if use_kills and cmin[ie] >= bsf:
                cur_arr = np.asarray(cur)
                mask = rmin_slice >= bsf
                n_kill = int(mask.sum())
                if n_kill:
                    cur_arr[mask] = inf
                    kills += n_kill
                    cur = cur_arr.tolist()
            # Early termination: next rows only grow from this frontier.
            if min(cur) >= bsf:
                break
        prev = cur
    if stats is not None:
        stats.cells_expanded += cells
        stats.cells_killed += kills
        stats.candidates_checked += checked
        stats.bsf_updates += updates
    return bsf, best


# ----------------------------------------------------------------------
# Wavefront (anti-diagonal) kernel
# ----------------------------------------------------------------------
def expand_subset_wavefront(
    dmat: np.ndarray,
    space: SearchSpace,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, Best]:
    """Anti-diagonal sweep over a dense matrix (see :func:`_rect_wavefront`)."""
    ie_hi = space.ie_limit(i, j)
    je_hi = space.je_limit(i, j)
    rect = dmat[i : ie_hi + 1, j : je_hi + 1]
    return _rect_wavefront(
        rect, space.xi, i, j, bsf, best,
        cmin[i : ie_hi + 1] if cmin is not None else None,
        rmin[j : je_hi + 1] if rmin is not None else None,
        prune, stats,
    )


def _rect_wavefront(
    rect: np.ndarray,
    xi: int,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin_slice: Optional[np.ndarray],
    rmin_slice: Optional[np.ndarray],
    prune: bool,
    stats: Optional[SearchStats],
) -> Tuple[float, Best]:
    """Anti-diagonal sweep with O(1) NumPy calls per diagonal.

    Diagonals live in three rolling buffers of length ``n_rows + 2``
    indexed by ``row + 1`` with ``+inf`` sentinels, so the three
    neighbour diagonals are plain contiguous slices (no gathers).  The
    ``g`` values along an anti-diagonal of the row-major rectangle are a
    strided view (step = row stride minus one element).
    """
    n_rows, n_cols = rect.shape
    use_kills = prune and cmin_slice is not None and rmin_slice is not None

    cells = 0
    kills = 0
    checked = 0
    updates = 0

    # Rolling buffers: index r+1 holds the value of rectangle row r on
    # that diagonal; indices outside the occupied range stay +inf.
    buf_a = np.full(n_rows + 2, inf)
    buf_b = np.full(n_rows + 2, inf)
    buf_c = np.full(n_rows + 2, inf)
    buf_a[1] = rect[0, 0]
    prev1, prev1_lo, prev1_hi = buf_a, 0, 0
    prev2 = buf_b
    spare = buf_c
    row_stride = rect.strides[0]
    col_stride = rect.strides[1]
    for d in range(1, n_rows + n_cols - 1):
        lo = max(0, d - n_cols + 1)
        hi = min(d, n_rows - 1)
        length = hi - lo + 1
        # Anti-diagonal of rect from (lo, d-lo) downward-left.
        g = np.lib.stride_tricks.as_strided(
            rect[lo:, d - lo :],
            shape=(length,),
            strides=(row_stride - col_stride,),
        )
        up = prev1[lo : lo + length]          # (r-1, c)   at index r
        left = prev1[lo + 1 : lo + 1 + length]  # (r, c-1)  at index r+1
        ul = prev2[lo : lo + length]          # (r-1, c-1) at index r
        cur = spare
        seg = cur[lo + 1 : lo + 1 + length]
        np.minimum(up, left, out=seg)
        np.minimum(seg, ul, out=seg)
        np.maximum(seg, g, out=seg)
        # Reset stale sentinels just outside the occupied range.
        cur[lo] = inf
        if lo + 1 + length < cur.shape[0]:
            cur[lo + 1 + length] = inf
        cells += length
        # Candidate cells on this diagonal: r > xi and c = d - r > xi.
        r_lo = max(lo, xi + 1)
        r_hi = min(hi, d - xi - 1)
        if r_hi >= r_lo:
            window = cur[r_lo + 1 : r_hi + 2]
            checked += window.shape[0]
            k = int(np.argmin(window))
            val = float(window[k])
            if val < bsf:
                r = r_lo + k
                bsf = val
                best = (i, i + r, j, j + d - r)
                updates += 1
        if prune:
            if use_kills:
                # cmin over rows lo..hi and rmin over the matching
                # (descending) columns -- both contiguous slices.
                kill_c = cmin_slice[lo : hi + 1]
                kill_r = rmin_slice[d - hi : d - lo + 1][::-1]
                mask = (kill_c >= bsf) & (kill_r >= bsf)
                n_kill = int(np.count_nonzero(mask))
                if n_kill:
                    seg[mask] = inf
                    kills += n_kill
            if float(seg.min()) >= bsf:
                prev_seg = prev1[prev1_lo + 1 : prev1_hi + 2]
                if prev_seg.shape[0] == 0 or float(prev_seg.min()) >= bsf:
                    break
        spare = prev2
        prev2 = prev1
        prev1, prev1_lo, prev1_hi = cur, lo, hi
    if stats is not None:
        stats.cells_expanded += cells
        stats.cells_killed += kills
        stats.candidates_checked += checked
        stats.bsf_updates += updates
    return bsf, best


# ----------------------------------------------------------------------
# The sweep frontier (many subsets, one anti-diagonal per round)
# ----------------------------------------------------------------------
# Per-row integer fields of a frontier (the rows of ``_ints``): start
# pair row, last rectangle row (``-1`` once the row is dead), last
# rectangle column, last diagonal, block position (counted from the
# first admitted one), row-major tie order, ``j + d``, current diagonal
# ``d``, best candidate's row and diagonal.  ``_JD`` and ``_D`` advance
# together; the fields from ``_D`` on start from ``_START``.
(_I, _H1, _W1, _LAST, _SLOT, _ROWMAJOR, _JD, _D, _BROW, _BDIAG) = range(10)
_START = np.array([[-1], [-1], [0]])
# Per-row float fields (the rows of ``_floats``): best candidate so far
# (the row's limit before chaining), previous diagonal's minimum, and
# the chained floor of the rows compacted away before it.
_BEST, _PMIN, _CARRY = range(3)
#: A row's side arrays (ten int64 and three float64 fields) in buffer
#: columns: the three rolling buffers take 24 bytes per column.
_SIDE = -(-(10 + 3) * 8 // 24)


def expand_subsets_stacked(
    oracle,
    space: SearchSpace,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    threshold: float,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    stats: Optional[SearchStats] = None,
    chained: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand subsets ``(i_idx[s], j_idx[s])`` in one anti-diagonal sweep.

    Returns ``(dist, ie, je)`` arrays: for each subset the first minimum
    candidate below ``threshold``, or ``(+inf, -1, -1)`` when it has
    none.  "First" follows the scan order of the kernel
    :func:`expand_subset` would run on that subset -- row-major for a
    dense rectangle of at most :data:`SCALAR_AREA_LIMIT` cells,
    anti-diagonal (lowest row first on a diagonal) otherwise -- so a
    result below any ``t <= threshold`` is exactly what that kernel
    reports when run alone under ``t``, ties included.

    Each subset prunes against its own limit: ``threshold``, lowered to
    its best candidate so far as the per-subset kernels do (one ulp
    above it for row-major subsets, whose later diagonals may still
    hold an equal candidate in an earlier row), and from the start to
    one ulp above its diagonal coupling (see :class:`SweepFrontier`).
    With ``chained`` the limit also falls to the best of every
    *earlier* subset: a best-first loop replaying the subsets in order
    accepts a result only below those.  Every candidate value below a
    subset's limit is computed exactly -- a kill only raises cells
    whose every extension is at or above the limit (the safe min-form),
    and a subset stops only once two consecutive frontier diagonals
    are -- so the minimum and its first position are found whenever
    they lie below it.

    This is a :class:`SweepFrontier` that admits every subset, as the
    cell budget allows, and runs until all have finished.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    count = i_idx.shape[0]
    block = np.arange(count)
    if not count:
        return np.full(0, inf), block, block
    pairs = SimpleNamespace(i_idx=i_idx, j_idx=j_idx)
    frontier = SweepFrontier(oracle, space, pairs, cmin, rmin, stats, chained)
    for pos in range(count):
        if not frontier.ready(block, pos):
            frontier.advance(block, pos, count, threshold)
    return frontier.dist, frontier.ie, frontier.je


def _buffers(rows: int, cols: int, old=()) -> np.ndarray:
    """Three rolling diagonal buffers of ``rows x cols`` cells holding
    the ``old`` ones, ``+inf`` in the rest of their rows.  Rows past the
    old ones are left for admission to fill."""
    bufs = np.empty((3, rows, cols))
    if len(old):
        n, held = old.shape[1], old.shape[2]
        bufs[:, :n, :held] = old
        bufs[:, :n, held:] = inf
    return bufs


def _kth_floors(pool: np.ndarray, upper: np.ndarray, k: int) -> np.ndarray:
    """``out[q]``: the ``k``-th smallest of ``pool`` and ``upper[:q]``.

    One pass per order statistic: the ``t+1``-th smallest of a prefix
    is the running minimum of ``max(x[q], t-th smallest before q)``.
    """
    seq = np.concatenate([np.sort(pool)[:k], upper])
    held = np.full(seq.shape[0] + 1, -inf)
    for _ in range(k):
        nxt = np.maximum(seq, held[:-1])
        held[0] = inf
        np.minimum.accumulate(nxt, out=held[1:])
    return held[-upper.shape[0] - 1 : -1]


class SweepFrontier:
    """The subset expansions of one best-first loop, as one live sweep.

    The loop walks the ascending blocks of
    :meth:`~repro.core.bounds.SubsetBounds.order_blocks` and replays
    its serial rules (break test, threshold, acceptance) per subset, in
    order; it reads each subset it consumes from :meth:`result` instead
    of running a per-subset kernel.  When that subset has not finished
    (:meth:`ready`), the loop calls :meth:`advance` with the block
    position where its cut stops, its current threshold -- at least
    every later subset's, since the cut only tightens -- and the block's
    lower bounds.

    *Rows.*  Each admitted subset holds one row of three rolling
    diagonal buffers, at its own anti-diagonal ``d``: rectangle row
    ``r`` at column ``r + 1``, column 0 and everything the row has not
    reached ``+inf``.  A round advances every row by one diagonal.  The
    valid cells of all rows (``lo <= r <= hi`` per row) are laid out
    flat, row after row; one index array over them reads the ground
    values, the three neighbour cells (columns ``r`` and ``r + 1`` of
    diagonal ``d - 1``, column ``r`` of ``d - 2``) and the
    ``Cmin``/``Rmin`` kill, and writes the new diagonal back.  A row
    that finishes is marked dead in place and its result stored; the
    rows are compacted (one fancy index per field array) once the dead
    ones are more than half.

    *Limits.*  A row starts from the loop's threshold ``T0``, and from
    one ulp above its diagonal coupling ``U`` when that is lower: the
    largest ground distance on the path ``(i + t, j + t)``, ``t <=
    xi + 1``, bounds the DFD of the subset's shortest diagonal
    candidate, so the subset's minimum is at most ``U``.  Chained rows
    (BTM) also fall to the best of every earlier row, the rows
    compacted away included.

    *Admission.*  Before each round the subsets from the admission
    cursor join at the end, under the threshold the loop passed, up to
    the first the loop will provably never consume: past the loop's own
    cut, or at a lower bound the earlier rows' bests already beat (the
    ``k``-th smallest of them for a top-``k`` loop; every row's best is
    at least its result).  :data:`STACK_BLOCK_CELLS` caps the rows
    times the columns the next round reaches (plus each row's side
    arrays); while they would not fit, admission waits, and when the
    deepening rows outgrow it the latest rows leave and rejoin later
    from the cursor.  Subsets admitted but never consumed (the loop
    broke earlier) are dropped.
    """

    def __init__(
        self,
        oracle,
        space: SearchSpace,
        bounds,
        cmin: Optional[np.ndarray],
        rmin: Optional[np.ndarray],
        stats: Optional[SearchStats],
        chained: bool = False,
        k: int = 1,
    ) -> None:
        self.oracle = oracle
        self.space = space
        self.bounds = bounds
        self.stats = stats
        self.chained = chained
        self.k = k
        self._kill = cmin is not None and rmin is not None
        self.cmin, self.rmin = cmin, rmin
        self._dense = hasattr(oracle, "array")
        self._ramp = np.arange(max(space.n_rows, space.n_cols) + 2)
        self._index = self._ramp[:0]
        self._bufs = _buffers(0, 0)
        self._turn = (0, 1, 2)  # the buffers of diagonals d-2, d-1, d
        self._ints = np.zeros((10, 0), dtype=np.int64)
        self._floats = np.zeros((3, 0))
        self._rows = self._dead = self._fresh = 0
        self._rowmajor = False
        self._narrowest = space.n_cols
        self._block = None
        self.rounds = 0

    # -- loop interface ------------------------------------------------
    def ready(self, block: np.ndarray, pos: int) -> bool:
        """Whether ``block[pos]`` has finished."""
        if block is not self._block:
            return False
        at = pos - self._base
        return at < self._finished.shape[0] and self._finished.item(at)

    def advance(
        self,
        block: np.ndarray,
        pos: int,
        stop: int,
        threshold: float,
        lbs: Optional[np.ndarray] = None,
        tick: Optional[Callable[[], None]] = None,
    ) -> None:
        """Run rounds until ``block[pos]`` has finished.

        ``block[pos:stop]`` (from the cursor on) may join under
        ``threshold``; ``lbs`` (the loop's lower bounds of ``block``)
        cuts admission further by the rows' bests.  ``tick`` is called
        after every round (the loop's deadline check).
        """
        if block is not self._block:
            self._start(block, pos)
        stop = min(stop, block.shape[0])
        at = pos - self._base
        while at >= self._finished.shape[0]:
            self._extend()
        totals = [0, 0, 0, 0]
        try:
            while not self._finished[at]:
                self._admit(stop, threshold, lbs)
                self._round(totals)
                if tick is not None:
                    tick()
        finally:
            if self.stats is not None:
                self.stats.cells_expanded += totals[0]
                self.stats.cells_killed += totals[1]
                self.stats.candidates_checked += totals[2]
                self.stats.bsf_updates += totals[3]

    def result(self, pos: int) -> Tuple[float, Best]:
        """``(dist, (i, ie, j, je))`` of a finished subset; ``(inf,
        None)`` when it has no candidate below its limit."""
        at = pos - self._base
        ie = self.ie.item(at)
        if ie < 0:
            return inf, None
        k = self._block.item(pos)
        return self.dist.item(at), (
            self.bounds.i_idx.item(k), ie,
            self.bounds.j_idx.item(k), self.je.item(at),
        )

    # -- rows ----------------------------------------------------------
    def _start(self, block: np.ndarray, pos: int) -> None:
        # Every row of an earlier block was consumed, so the loop's
        # threshold is already below their results: drop them.
        self._block = block
        self._base = self._next = pos
        self._never = block.shape[0]  # the first position never consumed
        self._rows = self._dead = 0
        self._need = 2  # the buffer columns the next round reaches
        self._gone = np.zeros(0)  # the k best of the compacted rows
        # Per block position from ``pos`` on, extended by doubling:
        # coupling bound, finished flag and result.
        self._upper = np.zeros(0)
        self._finished = np.zeros(0, dtype=bool)
        self.dist = np.zeros(0)
        self.ie = self.je = np.zeros(0, dtype=np.int64)
        self._extend()

    def _extend(self) -> None:
        """Double the block positions whose coupling bounds are known,
        ``U = max_t dG(i + t, j + t)`` over ``t <= xi + 1`` (stored one
        ulp up, the row's starting limit)."""
        have = self._base + self._upper.shape[0]
        stop = min(self._block.shape[0], have + max(1, self._upper.shape[0]))
        picks = self._block[have:stop]
        t = self._ramp[: self.space.xi + 2]
        i = self.bounds.i_idx[picks][:, None] + t
        j = self.bounds.j_idx[picks][:, None] + t
        upper = np.nextafter(self.oracle.values(i, j).max(axis=1), inf)
        more = picks.shape[0]
        self._upper = np.concatenate([self._upper, upper])
        self._finished = np.concatenate(
            [self._finished, np.zeros(more, dtype=bool)])
        self.dist = np.concatenate([self.dist, np.full(more, inf)])
        self.ie = np.concatenate([self.ie, np.full(more, -1)])
        self.je = np.concatenate([self.je, np.full(more, -1)])

    def _cut(self, stop: int, lbs: Optional[np.ndarray]) -> int:
        """The first position from the cursor (before ``stop``) that
        the loop will never consume, or ``stop``.  Once found it stays
        so: the floors only fall."""
        first = self._next
        stop = min(stop, self._never)
        while True:
            ready = min(stop, self._base + self._upper.shape[0])
            if lbs is not None and ready > first:
                upper = self._upper[first - self._base : ready - self._base]
                pool = np.concatenate(
                    [self._gone, self._floats[_BEST, : self._rows]]
                )
                if self.chained:
                    floor = np.minimum.accumulate(
                        np.concatenate([[pool.min(initial=inf)], upper])
                    )[:-1]
                    beaten = lbs[first:ready] >= floor
                else:
                    floor = _kth_floors(pool, upper, self.k)
                    beaten = lbs[first:ready] > floor
                if beaten.any():
                    self._never = first + int(np.argmax(beaten))
                    return self._never
            if ready == stop:
                return stop
            self._extend()

    def _admit(self, stop: int, threshold: float, lbs) -> None:
        """Fit the rows to the budget at the next round's width and let
        the admissible subsets take the free rows."""
        rows = self._rows
        need = self._need
        fit = max(1, STACK_BLOCK_CELLS // (need + _SIDE))
        if rows > fit and self._dead:
            self._compact()
            rows = self._rows
        if rows > fit:
            # The latest rows leave; they rejoin from the cursor.  The
            # compacted bests may come from rows past it: drop them.
            back = int(self._ints[_SLOT, fit])
            self._finished[back : self._next - self._base] = False
            self.ie[back : self._next - self._base] = -1
            self._next = self._base + back
            self._rows = rows = fit
            self._gone = self._gone[:0]
        self._fresh = rows
        take = min(stop - self._next, fit - rows)
        if take > 0:
            take = self._cut(self._next + take, lbs) - self._next
        if take <= 0:
            if need > self._bufs.shape[2]:
                self._fit(need, rows)
            return
        self._fit(need, rows + take)
        first, self._next = self._next, self._next + take
        picks = self._block[first : self._next]
        i = self.bounds.i_idx[picks]
        j = self.bounds.j_idx[picks]
        space = self.space
        if space.mode == SELF_MODE:
            heights = j - i  # ie runs from i to j - 1
        else:
            heights = space.n_rows - i
        widths = space.n_cols - j
        new = slice(rows, rows + take)
        ints = self._ints[:, new]
        ints[_I] = i
        ints[_H1] = heights - 1
        ints[_W1] = widths - 1
        ints[_LAST] = heights + widths - 2
        ints[_SLOT] = np.arange(first, self._next) - self._base
        ints[_ROWMAJOR] = 0
        if self._dense:
            # Ties resolve in the scan order expand_subset would use.
            ints[_ROWMAJOR] = heights * widths <= SCALAR_AREA_LIMIT
            self._rowmajor |= bool(ints[_ROWMAJOR].any())
        ints[_JD] = j - 1
        ints[_D:] = _START  # the first round computes diagonal 0
        self._narrowest = min(self._narrowest, int(widths.min()) - 1)
        floats = self._floats
        upper = self._upper[first - self._base : self._next - self._base]
        np.minimum(upper, threshold, out=floats[_BEST, new])
        if not self.chained and lbs is not None:
            # An unchained row falls to the k-th best of the rows
            # before it.
            pool = np.concatenate([self._gone, floats[_BEST, :rows]])
            floor = np.nextafter(_kth_floors(pool, upper, self.k), inf)
            np.minimum(floats[_BEST, new], floor, out=floats[_BEST, new])
        floats[_PMIN, new] = inf
        floats[_CARRY, new] = self._gone.min(initial=inf)
        self._bufs[:, new] = inf
        self._rows += take

    def _fit(self, need: int, rows: int) -> None:
        """Reallocate the buffers and side arrays when ``rows`` rows of
        ``need`` columns do not fit them."""
        held = self._bufs.shape[2]
        if need <= held and rows <= self._bufs.shape[1]:
            return
        if need > held:
            # Widen by doubling, never past the tallest live rectangle.
            tallest = int(self._ints[_H1, : self._rows].max(initial=0)) + 2
            held = min(2 * held, tallest)
        # Columns past ``need`` hold only +inf: drop what the rows
        # cannot afford.
        held = max(need, min(held, STACK_BLOCK_CELLS // rows - _SIDE))
        cap = max(rows, min(2 * rows, STACK_BLOCK_CELLS // (held + _SIDE)))
        old = self._rows
        self._bufs = _buffers(cap, held, self._bufs[:, :old, :held])
        ints = np.empty((10, cap), dtype=np.int64)
        ints[:, :old] = self._ints[:, :old]
        floats = np.empty((3, cap))
        floats[:, :old] = self._floats[:, :old]
        self._ints, self._floats = ints, floats
        self._index = np.arange(cap)

    def _compact(self) -> None:
        """Drop the dead rows, keeping their bests in the floors of the
        later rows."""
        rows = self._rows
        ints = self._ints[:, :rows]
        floats = self._floats[:, :rows]
        alive = ints[_H1] >= 0
        gone = floats[_BEST, ~alive]
        if self.chained:
            # The best of the rows before each one, compacted away.
            below = np.where(alive, inf, floats[_BEST])
            np.minimum.accumulate(below, out=below)
            np.minimum(floats[_CARRY, 1:], below[:-1], out=floats[_CARRY, 1:])
        self._gone = np.sort(np.concatenate([self._gone, gone]))[: self.k]
        keep = np.flatnonzero(alive)
        n = keep.shape[0]
        self._ints[:, :n] = ints[:, keep]
        self._floats[:, :n] = floats[:, keep]
        self._bufs[:, :n] = self._bufs[:, keep]
        self._rows = n
        self._dead = 0

    # -- one round -----------------------------------------------------
    def _round(self, totals) -> None:
        xi = self.space.xi
        rows = self._rows
        ints = self._ints[:, :rows]
        ints[_JD : _D + 1] += 1
        d = ints[_D]
        h1 = ints[_H1]
        # Row s's valid cells on its diagonal, lo <= r <= hi, laid out
        # row after row (a dead row has none: hi = -1).  lo passes 0
        # only once the diagonal passes the rectangle's last column.
        hi = np.minimum(d, h1)
        deepest = int(d.max())
        count = hi + 1
        lo = 0
        if deepest > self._narrowest:
            lo = d - ints[_W1]
            np.maximum(lo, 0, out=lo)
            count -= lo
            np.maximum(count, 0, out=count)
        ends = np.add.accumulate(count)
        total = int(ends[-1])
        firsts = ends - count
        s = np.repeat(self._index[:rows], count)
        r = np.arange(total)
        r -= np.repeat(firsts - lo, count)
        self._need = int(hi.max()) + 3
        g_rows = ints[_I][s]
        g_rows += r
        g_cols = ints[_JD][s]
        g_cols -= r
        g = self.oracle.values(g_rows, g_cols)
        # Cell (r, c) sits at column r + 1 of its row: (r-1, c) and
        # (r, c-1) on diagonal d-1 one column left and in place,
        # (r-1, c-1) on diagonal d-2 one column left.
        bufs = self._bufs
        b = s * bufs.shape[2]
        b += r + 1
        prev2, prev1, cur = (bufs[k].reshape(-1) for k in self._turn)
        left = b - 1
        # One +inf past the cells closes the last row's segment for
        # the per-row minimum below (dead rows have no cells).
        closed = np.empty(total + 1)
        closed[total] = inf
        v = closed[:total]
        np.minimum(prev1[left], prev1[b], out=v)
        np.minimum(v, prev2[left], out=v)
        np.maximum(v, g, out=v)
        fresh = rows - self._fresh
        if fresh:
            # Rows admitted for this round are last, at diagonal 0.
            v[total - fresh :] = g[total - fresh :]
        totals[0] += total
        floats = self._floats[:, :rows]
        best = floats[_BEST]
        rowmajor = ints[_ROWMAJOR] != 0 if self._rowmajor else None
        # Candidate cells: r > xi and c = d - r > xi, so only rows past
        # diagonal 2 * xi + 1 hold any.
        if deepest > 2 * xi + 1:
            cand = r > xi
            cand &= r < (d - xi)[s]
            cand = np.flatnonzero(cand)
            totals[2] += cand.shape[0]
            cv, cs = v[cand], s[cand]
            held = best[cs]
            hit = cv < held
            if rowmajor is not None:
                # A row-major tie only counts in an earlier row.
                hit |= (cv == held) & rowmajor[cs] & (r[cand] < ints[_BROW][cs])
            if hit.any():
                self._improve(ints, best, cand[hit], v, s, r, rowmajor, totals)
        limit = best
        if rowmajor is not None:
            limit = np.where(rowmajor, np.nextafter(best, inf), best)
        if self.chained:
            before = np.minimum.accumulate(best)
            limit = np.minimum(limit, floats[_CARRY])
            np.minimum(limit[1:], before[:-1], out=limit[1:])
        if self._kill:
            kill = np.minimum(self.cmin[g_rows], self.rmin[g_cols])
            kill = kill >= limit[s]
            n_kill = int(np.count_nonzero(kill))
            if n_kill:
                v[kill] = inf
                totals[1] += n_kill
        cur[b] = v
        seg_min = np.minimum.reduceat(closed, firsts)
        prev_min = floats[_PMIN]
        done = np.minimum(seg_min, prev_min) >= limit
        done |= d >= ints[_LAST]
        done &= h1 >= 0
        prev_min[:] = seg_min
        self._turn = self._turn[1:] + self._turn[:1]
        self.rounds += 1
        if done.any():
            self._retire(ints, best, np.flatnonzero(done))

    @staticmethod
    def _improve(ints, best, cells, v, s, r, rowmajor, totals) -> None:
        """Each row's first minimum among its candidate ``cells``, when
        it beats the row's best (lowest ``r`` first on a diagonal: the
        scan order of both per-subset kernels there)."""
        cells = cells[np.lexsort((v[cells], s[cells]))]  # r stays ascending
        rows = s[cells]
        first = np.ones(cells.shape[0], dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        cells, rows = cells[first], rows[first]
        val, found = v[cells], r[cells]
        better = val < best[rows]
        if rowmajor is not None:
            better |= (
                (val == best[rows]) & rowmajor[rows] & (found < ints[_BROW][rows])
            )
        rows = rows[better]
        best[rows] = val[better]
        ints[_BROW][rows] = found[better]
        ints[_BDIAG][rows] = ints[_D][rows]
        totals[3] += rows.shape[0]

    def _retire(self, ints, best, k: np.ndarray) -> None:
        """Store the results of the finished rows ``k``, mark them dead
        and compact once the dead rows are more than half."""
        pos = ints[_SLOT][k]
        self._finished[pos] = True
        ints[_H1][k] = -1
        self._dead += k.shape[0]
        brow = ints[_BROW][k]
        hit = brow >= 0
        k, pos, brow = k[hit], pos[hit], brow[hit]
        self.dist[pos] = best[k]
        self.ie[pos] = ints[_I][k] + brow
        self.je[pos] = ints[_JD][k] - ints[_D][k] + ints[_BDIAG][k] - brow
        if 2 * self._dead > self._rows:
            self._compact()
