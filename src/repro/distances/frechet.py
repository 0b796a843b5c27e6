"""Discrete Frechet distance (DFD).

The DFD between point sequences ``P`` and ``Q`` is the minimum over all
monotone couplings of the maximum ground distance of a coupled pair --
the "dog leash" length when person and dog may only pause, never move
backwards (Eiter & Mannila 1994; paper Section 3).

Observation 1 of the paper recasts the recurrence as a path problem: the
DFD equals the min-max weight over monotone staircase paths from cell
``(0, 0)`` to cell ``(n-1, m-1)`` of the ground distance matrix.  All
implementations here work on that matrix:

* :func:`dfd_matrix` -- the dynamic program, the workhorse.  A 2-D
  matrix runs a row scan holding two rows (idea (ii) of GTM*, Section
  5.5); a padded ``(P, N, M)`` stack runs one anti-diagonal sweep
  vectorised across all ``P`` pairs;
* :func:`dfd_matrix_recursive` -- memoised literal recurrence, used as a
  correctness oracle in tests;
* :func:`dfd_decision` -- reachability test ``DFD <= eps``, for a matrix
  or a stack;
* :func:`dfd_matrix_by_search` -- binary search on the sorted matrix
  values using :func:`dfd_decision` (the DFD always equals some ground
  distance).

Corpus paths hold lists of trajectory pairs; :func:`ground_stacks`
buckets such a list by length into bounded stacked blocks and
:func:`dfd_pairs` returns every pair's DFD from them.
:func:`dfd_pairs_at` is the one kernel under it: it reads pairs by
index out of two padded point stacks, so an index holding its
summaries as stacks pays no per-call padding;
:func:`coupling_upper_bounds` bounds every pair's DFD from above from
one coupling's cells, which settles a threshold decision without the
matrix.  :func:`discrete_frechet` is the public convenience entry point
taking raw point arrays.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from ..errors import TrajectoryError
from .ground import (
    GroundMetric,
    PointStack,
    cross_ground_matrix,
    get_metric,
    ground_stack,
    ground_stack_at,
)

#: Padded cells one stacked block may hold.  Bounds the stack and the
#: ground-matrix temporaries built for it (about 1 MB each at this
#: size), so a long pair list costs time, not peak memory: an index
#: build over 3000 walks peaks ~8 MB higher with blocks four times this
#: size, for no measurable speed-up.
STACK_BLOCK_CELLS = 1 << 16


def _check_matrix(dmat: np.ndarray, lengths=None) -> np.ndarray:
    if lengths is not None:
        raise TrajectoryError("lengths apply to a (P, N, M) stack, not a 2-D matrix")
    dmat = np.asarray(dmat, dtype=np.float64)
    if dmat.ndim != 2 or dmat.shape[0] == 0 or dmat.shape[1] == 0:
        raise TrajectoryError(f"distance matrix must be 2-D and non-empty; got {dmat.shape}")
    if not np.isfinite(dmat).all():
        raise TrajectoryError("distance matrix contains NaN or infinite entries")
    return dmat


def _check_stack(stack: np.ndarray, lengths) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a padded stack; returns it with each pair's ``n_p``, ``m_p``.

    Only the cells inside a pair's own block must be finite: the
    padding around it (``+inf`` from :func:`ground_stack`) is never read
    into that pair's result.
    """
    stack = np.asarray(stack, dtype=np.float64)
    count, rows, cols = stack.shape
    if lengths is None:
        raise TrajectoryError("a stacked DFD needs each pair's (n, m) lengths")
    lengths = np.asarray(lengths, dtype=np.int64)
    if (
        lengths.shape != (count, 2)
        or (lengths < 1).any()
        or (lengths > [rows, cols]).any()
    ):
        raise TrajectoryError(
            f"lengths must be {count} (n, m) pairs within {(rows, cols)}"
        )
    n, m = lengths[:, 0], lengths[:, 1]
    ok = np.isfinite(stack)
    ok |= (np.arange(rows) >= n[:, None])[:, :, None]
    ok |= (np.arange(cols) >= m[:, None])[:, None, :]
    if not ok.all():
        raise TrajectoryError("distance matrix contains NaN or infinite entries")
    return stack, n, m


def _dfd_stack(stack: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Anti-diagonal DP sweep over a padded stack; pair ``p`` reads its
    own ``(n_p - 1, m_p - 1)`` cell.

    Every cell of diagonal ``d = i + j`` depends only on diagonals
    ``d - 1`` and ``d - 2``, so one diagonal of all ``P`` pairs is three
    numpy calls.  One fancy index gathers the stack cell-major in
    anti-diagonal order, so a diagonal's values are a contiguous run of
    rows.  A diagonal is held by row, shifted by one (``diag[i + 1]`` is
    cell ``(i, d - i)`` of every pair) so that row 0 is a permanent
    ``+inf`` border.  The three rolling buffers need no reset: a
    diagonal's row range only moves forward, so the rows the next two
    diagonals read beyond it were never written and still hold the
    initial ``+inf``.  A cell depends only on its own prefix, so a
    pair's end cell never reads the padding around its block.
    """
    count, rows, cols = stack.shape
    out = np.empty(count)
    if not count:
        return out
    order = np.argsort(
        np.add.outer(np.arange(rows), np.arange(cols)), axis=None, kind="stable"
    )
    cells = stack.reshape(count, rows * cols).T[order]
    end = n + m - 2
    stops = iter(np.unique(end).tolist())
    stop = next(stops)
    prev2 = np.full((rows + 1, count), np.inf)
    prev1 = np.full((rows + 1, count), np.inf)
    cur = np.full((rows + 1, count), np.inf)
    best = np.empty((min(rows, cols), count))
    start = 0
    for d in range(int(end.max()) + 1):
        lo, hi = max(0, d - cols + 1), min(d, rows - 1)
        width = hi - lo + 1
        vals = cells[start:start + width]
        start += width
        if d == 0:
            cur[1] = vals[0]
        else:
            # Predecessors of (i, j): (i-1, j) and (i, j-1) on diagonal
            # d-1, (i-1, j-1) on diagonal d-2.
            tmp = best[:width]
            np.minimum(prev1[lo:hi + 1], prev1[lo + 1:hi + 2], out=tmp)
            np.minimum(tmp, prev2[lo:hi + 1], out=tmp)
            np.maximum(vals, tmp, out=cur[lo + 1:hi + 2])
        if d == stop:
            # Only the distinct end diagonals hold results.
            done = np.flatnonzero(end == d)
            out[done] = cur[n[done], done]
            stop = next(stops, None)
        prev2, prev1, cur = prev1, cur, prev2
    return out


def dfd_matrix(dmat: np.ndarray, lengths=None):
    """DFD of a ground matrix, or of every matrix in a padded stack.

    A 2-D ``(n, m)`` matrix returns a float from the row-scan DP and
    takes no ``lengths``.  A 3-D ``(P, N, M)`` stack needs them and
    returns a ``(P,)`` array: pair ``p``'s matrix is the top-left
    ``lengths[p] = (n_p, m_p)`` block, and values equal the 2-D DP's bit
    for bit (the DP only selects among matrix entries).  Non-finite
    cells and a missing or misplaced ``lengths`` raise
    :class:`~repro.errors.TrajectoryError`.
    """
    if np.ndim(dmat) == 3:
        return _dfd_stack(*_check_stack(dmat, lengths))
    dmat = _check_matrix(dmat, lengths)
    # Python floats over list rows: indexing numpy scalars per cell
    # costs several times the compares.  The tie order is part of the
    # result (0.0 and -0.0 tie): a first-column cell keeps its own value
    # against the cell above, as ``max(row[0], prev[0])`` does; inside a
    # row the predecessors tie in the order of ``min(prev[j - 1],
    # prev[j], cur[j - 1])``, and the cell's value replaces them only
    # when strictly larger.
    rows = dmat.tolist()
    prev = np.maximum.accumulate(dmat[0]).tolist()
    for row in rows[1:]:
        x = row[0]
        p = prev[0]
        left = p if p > x else x
        cur = [left]
        for pd, p, x in zip(prev, prev[1:], row[1:]):
            best = p if p < pd else pd
            if left < best:
                best = left
            left = x if x > best else best
            cur.append(left)
        prev = cur
    return prev[-1]


def dfd_matrix_recursive(dmat: np.ndarray) -> float:
    """Literal paper recurrence with memoisation (test oracle, small inputs).

    Evaluated with an explicit work stack so arbitrarily long inputs do
    not touch the interpreter recursion limit.
    """
    dmat = _check_matrix(dmat)
    n, m = dmat.shape
    if n * m > 250_000:
        raise TrajectoryError("recursive DFD oracle is limited to small matrices")
    memo = {(0, 0): float(dmat[0, 0])}
    stack = [(n - 1, m - 1)]
    while stack:
        ie, je = stack[-1]
        if (ie, je) in memo:
            stack.pop()
            continue
        if ie == 0:
            deps = [(0, je - 1)]
        elif je == 0:
            deps = [(ie - 1, 0)]
        else:
            deps = [(ie - 1, je), (ie, je - 1), (ie - 1, je - 1)]
        missing = [d for d in deps if d not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        memo[(ie, je)] = max(float(dmat[ie, je]), min(memo[d] for d in deps))
    return memo[(n - 1, m - 1)]


def dfd_decision(dmat: np.ndarray, eps: float, lengths=None):
    """Vectorised decision: is ``DFD(dmat) <= eps``?

    A 2-D matrix runs a boolean reachability sweep over rows.  Within
    one row the recurrence ``reach[j] = free[j] and (from_above[j] or
    reach[j-1])`` is resolved without a Python inner loop using a
    cumulative-count trick over maximal runs of free cells.  A padded
    ``(P, N, M)`` stack (with ``lengths`` as in :func:`dfd_matrix`)
    returns a ``(P,)`` boolean array from the stacked value sweep: the
    DFD is exact, so comparing it with ``eps`` is the decision.
    """
    if np.ndim(dmat) == 3:
        return dfd_matrix(dmat, lengths) <= eps
    dmat = _check_matrix(dmat, lengths)
    n, m = dmat.shape
    free = dmat <= eps
    if not free[0, 0] or not free[n - 1, m - 1]:
        return False
    idx = np.arange(m)
    # First row: reachable prefix of free cells.
    blocked = np.flatnonzero(~free[0])
    first_block = blocked[0] if blocked.size else m
    reach = idx < first_block
    for i in range(1, n):
        row_free = free[i]
        # from_above[j]: the path can step down into (i, j) from row i-1,
        # either vertically (reach[j]) or diagonally (reach[j-1]).
        from_above = reach.copy()
        from_above[1:] |= reach[:-1]
        entry = row_free & from_above
        # reach[j] = row_free[j] and (entry at some k <= j with
        # row_free[k..j] all true).  last_block[j] = last index <= j
        # where row_free is false; an entry strictly after it unlocks j.
        last_block = np.maximum.accumulate(np.where(~row_free, idx, -1))
        centry = np.cumsum(entry)
        base = np.where(last_block >= 0, centry[np.maximum(last_block, 0)], 0)
        reach = row_free & ((centry - base) > 0)
        if not reach.any():
            return False
    return bool(reach[m - 1])


def dfd_matrix_by_search(dmat: np.ndarray) -> float:
    """Exact DFD via binary search over the matrix values.

    The DFD always equals one of the ground distances along the optimal
    path, so a binary search over the sorted unique values combined with
    :func:`dfd_decision` yields the exact answer in
    ``O(nm log(nm))`` with fully vectorised passes.
    """
    dmat = _check_matrix(dmat)
    lo_bound = max(float(dmat[0, 0]), float(dmat[-1, -1]))
    values = np.unique(dmat[dmat >= lo_bound])
    if values.size == 0:
        values = np.unique(dmat)
    lo, hi = 0, values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if dfd_decision(dmat, float(values[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def stack_blocks(n_rows: Sequence[int], n_cols: Sequence[int]) -> Iterator[np.ndarray]:
    """Positions of a pair list grouped into stackable blocks.

    Pairs are bucketed by the power-of-two class of each length, so no
    pair is padded to twice its own size on either axis, and each
    bucket is cut into blocks of at most :data:`STACK_BLOCK_CELLS`
    padded cells (at least one pair per block).
    """
    n_rows = np.asarray(n_rows, dtype=np.int64)
    n_cols = np.asarray(n_cols, dtype=np.int64)
    if not len(n_rows):
        return
    # frexp's exponent of (n - 1) is ceil(log2(n)) for every n >= 1.
    keys = np.frexp(n_rows - 1)[1] * 64 + np.frexp(n_cols - 1)[1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    edges = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    for lo, hi in zip(edges, edges[1:]):
        bucket = order[lo:hi]
        cells = int(n_rows[bucket].max()) * int(n_cols[bucket].max())
        step = max(1, STACK_BLOCK_CELLS // cells)
        for k in range(0, len(bucket), step):
            yield bucket[k:k + step]


def ground_stacks(
    lefts: Sequence[np.ndarray],
    rights: Sequence[np.ndarray],
    metric: Union[str, GroundMetric] = "euclidean",
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(positions, stack, lengths)`` blocks covering every aligned pair.

    ``stack[k]`` is the ``+inf``-padded ground matrix of pair
    ``(lefts[positions[k]], rights[positions[k]])``
    (:func:`~repro.distances.ground.ground_stack`); blocks follow
    :func:`stack_blocks`.
    """
    for pos in stack_blocks([len(p) for p in lefts], [len(q) for q in rights]):
        stack, lengths = ground_stack(
            [lefts[k] for k in pos], [rights[k] for k in pos], metric
        )
        yield pos, stack, lengths


def dfd_pairs_at(
    left: PointStack,
    right: PointStack,
    ia: np.ndarray,
    ib: np.ndarray,
    metric: Union[str, GroundMetric] = "euclidean",
) -> np.ndarray:
    """Exact DFD of every pair ``(left[ia[k]], right[ib[k]])`` of two
    :class:`~repro.distances.ground.PointStack` rows.

    The pairs are grouped by :func:`stack_blocks`; each block is one
    :func:`~repro.distances.ground.ground_stack_at` stack, cut to the
    block's own longest arrays, and one stacked :func:`dfd_matrix`
    call.  Entry ``k`` equals the 2-D DP of that pair's ground matrix
    exactly.  Indices may repeat; empty index arrays return an empty
    result.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    if ia.shape != ib.shape:
        raise TrajectoryError(
            f"{len(ia)} left and {len(ib)} right indices do not align"
        )
    out = np.empty(len(ia))
    for pos in stack_blocks(left.lengths[ia], right.lengths[ib]):
        out[pos] = dfd_matrix(
            *ground_stack_at(left, right, ia[pos], ib[pos], metric)
        )
    return out


def dfd_pairs(
    lefts: Sequence[np.ndarray],
    rights: Sequence[np.ndarray],
    metric: Union[str, GroundMetric] = "euclidean",
) -> np.ndarray:
    """Exact DFD of every aligned pair ``(lefts[k], rights[k])``.

    One stacked :func:`dfd_matrix` call per :func:`ground_stacks`
    block, each padded on its own: a long list of ragged arrays costs
    time, not a stack padded to its longest array.  Entry ``k`` equals
    ``dfd_matrix(metric.pairwise(lefts[k], rights[k]))`` exactly.
    Lists of different lengths raise
    :class:`~repro.errors.TrajectoryError`.
    """
    if len(lefts) != len(rights):
        raise TrajectoryError(
            f"{len(lefts)} left and {len(rights)} right point arrays do not align"
        )
    out = np.empty(len(lefts))
    for pos, stack, lengths in ground_stacks(lefts, rights, metric):
        out[pos] = dfd_matrix(stack, lengths)
    return out


def coupling_upper_bounds(
    lefts: Sequence[np.ndarray],
    rights: Sequence[np.ndarray],
    metric: Union[str, GroundMetric] = "euclidean",
) -> np.ndarray:
    """An upper bound on the DFD of every aligned pair, from one coupling.

    Pair ``k`` (lengths ``n``, ``m``; ``L = max(n, m) - 1``) is walked
    along the equal-speed monotone coupling ``t -> (round(t (n-1) / L),
    round(t (m-1) / L))``, ``t = 0 .. L`` (halves round up); entry ``k``
    is the largest ground distance on that walk, ``max(n, m)`` cells
    instead of ``n m``.  All pairs' cells are one gather and one
    :meth:`~repro.distances.ground.GroundMetric.prepared_cells` call.

    For an :attr:`~repro.distances.ground.GroundMetric.exact_rowwise`
    metric those cells equal :func:`ground_stack`'s bit for bit, and
    the DP's value is a min over couplings of the same cells, so
    ``bound >= dfd_pairs(...)`` holds exactly in floats: ``bound <=
    theta`` decides ``DFD <= theta`` as :func:`dfd_decision` would.
    Other metrics get ``+inf`` (no claim).  Points outside the metric's
    domain raise :class:`~repro.errors.TrajectoryError`, as
    :func:`ground_stack` would, whichever cells the walk visits.
    """
    m = get_metric(metric)
    count = len(lefts)
    if len(rights) != count:
        raise TrajectoryError(
            f"{count} left and {len(rights)} right point arrays do not align"
        )
    if not count or not m.exact_rowwise:
        return np.full(count, np.inf)
    a, first_a, n = _flat_points(lefts)
    b, first_b, mm = _flat_points(rights)
    m._check_domain(a)
    m._check_domain(b)
    return flat_coupling_bounds(
        m.prepare(a), first_a, n, m.prepare(b), first_b, mm, m
    )


def flat_coupling_bounds(a, first_a, n, b, first_b, mm, metric):
    """:func:`coupling_upper_bounds` of pairs held as runs of two flat
    point sets in :meth:`~repro.distances.ground.GroundMetric.prepare`
    form: pair ``k`` couples the ``n[k]`` points of ``a`` from
    ``first_a[k]`` on with the ``mm[k]`` points of ``b`` from
    ``first_b[k]`` on, all cells gathered into one
    :meth:`~repro.distances.ground.GroundMetric.prepared_cells` call.  Runs may repeat, so a caller that prepares each trajectory
    once (an index's slab, the join screen's chunk) builds no per-pair
    arrays.  The caller's part: an
    :attr:`~repro.distances.ground.GroundMetric.exact_rowwise` metric,
    and the runs' points checked against its domain.
    """
    m = get_metric(metric)
    steps = np.maximum(n, mm)
    starts = np.cumsum(steps) - steps
    pair = np.repeat(np.arange(len(steps)), steps)
    t = np.arange(int(steps.sum())) - starts[pair]

    def walk(lengths):
        # round(t (n - 1) / L) is t itself on the longer side (n - 1 ==
        # L), so only the shorter side's cells pay the division.
        idx = t.copy()
        short = np.flatnonzero((lengths < steps)[pair])
        if len(short):
            span = np.maximum(steps - 1, 1)[pair[short]]
            idx[short] = (
                2 * t[short] * (lengths[pair[short]] - 1) + span
            ) // (2 * span)
        return idx

    rows_a = first_a[pair] + walk(n)
    rows_b = first_b[pair] + walk(mm)
    cells = m.prepared_cells(
        [x.take(rows_a) for x in a], [y.take(rows_b) for y in b]
    )
    return np.maximum.reduceat(cells, starts)


def _flat_points(arrays: Sequence[np.ndarray]):
    """Ragged ``(n_k, d)`` arrays as one ``(sum n_k, d)`` array, each
    array's first row in it, and the lengths."""
    lengths = np.array([len(x) for x in arrays], dtype=np.int64)
    if lengths.min() < 1:
        raise TrajectoryError("coupling bounds need non-empty point arrays")
    flat = np.concatenate([np.asarray(x, dtype=np.float64) for x in arrays])
    return flat, np.cumsum(lengths) - lengths, lengths


def discrete_frechet(
    p: np.ndarray,
    q: np.ndarray,
    metric: Union[str, GroundMetric] = "euclidean",
) -> float:
    """Discrete Frechet distance between two point sequences.

    Parameters
    ----------
    p, q:
        ``(n, d)`` and ``(m, d)`` coordinate arrays (or objects exposing
        ``.points`` such as :class:`~repro.trajectory.Trajectory`).
    metric:
        Ground metric name or instance (``"euclidean"``, ``"haversine"``,
        ...).
    """
    p = getattr(p, "points", p)
    q = getattr(q, "points", q)
    return dfd_matrix(cross_ground_matrix(p, q, metric))


def frechet_path(dmat: np.ndarray):
    """Return ``(dfd, path)`` where ``path`` is one optimal coupling.

    The path is a list of ``(i, j)`` index pairs from ``(0, 0)`` to
    ``(n-1, m-1)`` realising the min-max value, reconstructed greedily
    from the full DP table.  Intended for visualisation and tests, not
    for the hot loop.
    """
    dmat = _check_matrix(dmat)
    n, m = dmat.shape
    table = [np.maximum.accumulate(dmat[0]).tolist()]
    for row in dmat.tolist()[1:]:
        above = table[-1]
        cur = [max(row[0], above[0])]
        for j in range(1, m):
            best_prev = min(above[j - 1], above[j], cur[j - 1])
            cur.append(max(row[j], best_prev))
        table.append(cur)
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        options = []
        if i > 0 and j > 0:
            options.append((table[i - 1][j - 1], (i - 1, j - 1)))
        if i > 0:
            options.append((table[i - 1][j], (i - 1, j)))
        if j > 0:
            options.append((table[i][j - 1], (i, j - 1)))
        _, (i, j) = min(options, key=lambda t: t[0])
        path.append((i, j))
    path.reverse()
    return table[n - 1][m - 1], path
