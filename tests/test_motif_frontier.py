"""The sweep frontier of the best-first loops (``repro.core.dp.SweepFrontier``).

``run_best_first`` and ``scan_topk_entries`` keep one frontier for the
whole loop: subsets join a running anti-diagonal sweep when the cut
admits them and leave at their own depth.  Every test here checks the
loops' answers and subset counters against the per-subset reference
loops of ``test_batched_best_first`` while driving
one part of the frontier:

* subsets admitted while others are mid-sweep, rows on different
  diagonals in one round;
* retirement, then compaction, with the chained floor carried across
  the compacted-away rows;
* admissions waiting under a tiny ``STACK_BLOCK_CELLS``;
* a single admission under an infinite threshold;
* row-major tie order (dense oracle, ``SCALAR_AREA_LIMIT`` patched
  small).

One structural check: on a fixed 300-point self-mode input a discover
runs no round past the last finish of a subset the loop consumed (its
admission round plus its depth).  The examples derive from
``REPRO_TEST_SEED`` (default 0), like the randomized parity suite.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.core.dp as dp
import test_batched_best_first as ref
from repro.core.bounds import BoundTables, relaxed_subset_bounds
from repro.core.btm import run_best_first
from repro.core.problem import self_space
from repro.core.stats import SearchStats
from repro.distances.ground import (
    DenseGroundMatrix,
    LazyGroundMatrix,
    get_metric,
)
from repro.extensions.topk import scan_topk_entries
from repro.testing import random_walk_points

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
Frontier = dp.SweepFrontier


class Recorder:
    """Frontier events, recorded through its admission, round,
    compaction, retirement and result steps."""

    def __init__(self):
        self.admissions = []   # (live rows' diagonals, admitted, admissible)
        self.spreads = []      # distinct diagonals among live rows, per round
        self.compactions = []  # (rows dropped, chained floor carried)
        # Keyed by (frontier, block, position):
        self.admitted = {}     # admission round
        self.finished = {}     # rounds run when the row finished
        self.consumed = []     # the positions the loop read
        self.rounds = {}       # frontier -> rounds run
        self.shapes = []       # buffer allocations (rows, columns)

    def live_diagonals(self, frontier):
        ints = frontier._ints[:, : frontier._rows]
        return ints[dp._D][ints[dp._H1] >= 0]

    @contextmanager
    def watching(self):
        admit, round_, compact = Frontier._admit, Frontier._round, Frontier._compact
        retire, result, buffers = Frontier._retire, Frontier.result, dp._buffers
        rec = self

        def on_admit(self, stop, threshold, lbs):
            before, live = self._next, rec.live_diagonals(self)
            admit(self, stop, threshold, lbs)
            rec.admissions.append((live, self._next - before, stop - before))
            for pos in range(before, self._next):
                rec.admitted[id(self), id(self._block), pos] = self.rounds

        def on_round(self, totals):
            rec.spreads.append(np.unique(rec.live_diagonals(self)).shape[0])
            round_(self, totals)
            rec.rounds[id(self)] = self.rounds

        def on_compact(self):
            dropped = self._rows - int(np.count_nonzero(
                self._ints[dp._H1, : self._rows] >= 0))
            compact(self)
            carry = self._floats[dp._CARRY, : self._rows]
            rec.compactions.append(
                (dropped, self.chained and bool((carry < math.inf).any())))

        def on_retire(self, ints, best, k):
            for slot in ints[dp._SLOT][k]:
                pos = self._base + int(slot)
                rec.finished[id(self), id(self._block), pos] = self.rounds
            retire(self, ints, best, k)

        def on_result(self, pos):
            rec.consumed.append((id(self), id(self._block), pos))
            return result(self, pos)

        def on_buffers(rows, cols, old=()):
            rec.shapes.append((rows, cols))
            return buffers(rows, cols, old)

        Frontier._admit, Frontier._round = on_admit, on_round
        Frontier._compact, Frontier._retire = on_compact, on_retire
        Frontier.result, dp._buffers = on_result, on_buffers
        try:
            yield self
        finally:
            Frontier._admit, Frontier._round = admit, round_
            Frontier._compact, Frontier._retire = compact, retire
            Frontier.result, dp._buffers = result, buffers


def check_best_first(case, bounds, bsf0=math.inf, best0=None, approx=1.0,
                     use_kills=True):
    """``run_best_first`` against the per-subset reference loop."""
    want_bsf, want_best, want = ref.reference_best_first(
        case, bounds, bsf0, best0, use_kills, approx,
    )
    got = SearchStats()
    got_bsf, got_best = run_best_first(
        case.oracle, case.space, bounds, case.tables, got, bsf=bsf0,
        best=best0, use_kills=use_kills, approx_factor=approx,
    )
    assert (got_bsf, got_best) == (want_bsf, want_best)
    for name in ref.COUNTERS:
        assert getattr(got, name) == getattr(want, name), name


def check_topk(case, bounds, k, kth0=math.inf):
    """``scan_topk_entries`` against the per-subset reference loop."""
    want, want_stats = ref.reference_topk(case, bounds, k, kth0)
    got_stats = SearchStats()
    got = scan_topk_entries(
        case.oracle, case.space, bounds, case.tables.cmin, case.tables.rmin,
        k, got_stats, kth0=kth0,
    )
    assert got == want
    assert got_stats.subsets_expanded == want_stats.subsets_expanded


def walk_case(n, xi, walk_seed, lazy=True):
    """A random-walk self-mode case in the shape of ``ref.Case``."""
    case = ref.Case.__new__(ref.Case)
    case.a = random_walk_points(n, walk_seed)
    case.b = None
    case.space = self_space(n, xi)
    case.metric = get_metric("euclidean")
    case.dmat = case.metric.pairwise(case.a, case.a)
    case.dense = DenseGroundMatrix(case.dmat)
    case.oracle = (LazyGroundMatrix(case.a, metric=case.metric)
                   if lazy else case.dense)
    case.tables = BoundTables.build(case.space, case.oracle)
    return case


@contextmanager
def budget(cells=None, area_limit=None):
    saved = dp.STACK_BLOCK_CELLS, dp.SCALAR_AREA_LIMIT
    dp.STACK_BLOCK_CELLS = saved[0] if cells is None else cells
    dp.SCALAR_AREA_LIMIT = saved[1] if area_limit is None else area_limit
    try:
        yield
    finally:
        dp.STACK_BLOCK_CELLS, dp.SCALAR_AREA_LIMIT = saved


# ----------------------------------------------------------------------
# Admission mid-sweep, rows on different diagonals
# ----------------------------------------------------------------------
@seed(SEED)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([40, 56]),
       st.sampled_from([48, 96]), st.sampled_from(["inf", "truth", "loose"]))
def test_admission_mid_sweep(walk_seed, n, cells, level):
    """Under a budget of a few rows, subsets join as earlier rows finish,
    while the others are mid-sweep, so one round holds rows on several
    diagonals.  Every subset still gets the per-subset kernel's result,
    and the loops the reference loops' answers."""
    case = walk_case(n, 2, walk_seed)
    truth = ref.seeds_for(case, "exact")[0]
    threshold = {"inf": math.inf, "truth": np.nextafter(truth, np.inf),
                 "loose": truth * 1.5 + 0.5}[level]
    pairs = list(case.space.start_pairs())[::5]
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    cmin, rmin = case.tables.cmin, case.tables.rmin
    bounds = relaxed_subset_bounds(case.space, case.oracle, case.tables)
    rec = Recorder()
    with budget(cells), rec.watching():
        dist, ie, je = dp.expand_subsets_stacked(
            case.oracle, case.space, i_idx, j_idx, threshold, cmin, rmin)
        for s, (i, j) in enumerate(pairs):
            want_d, want = case.expand(i, j, threshold, None, cmin, rmin, None)
            got = None if ie[s] < 0 else (i, int(ie[s]), j, int(je[s]))
            assert got == want
            if want is not None:
                assert dist[s] == want_d
        check_best_first(case, bounds)
        check_topk(case, bounds, 3)
    assert any(admitted and (live >= 0).any()
               for live, admitted, _ in rec.admissions)
    assert max(rec.spreads) > 1


# ----------------------------------------------------------------------
# Retirement and compaction
# ----------------------------------------------------------------------
@seed(SEED)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from(["inf", "loose"]))
def test_compaction_carries_chained_floor(walk_seed, level):
    """Finished rows are dropped once they are more than half; their
    bests stay in the chained floor of the rows after them.  Replayed in
    order, each result is the per-subset kernel's under the best so far
    (a chained result counts only below it), and the loop answers like
    the reference loop."""
    case = walk_case(48, 2, walk_seed)
    truth = ref.seeds_for(case, "exact")[0]
    bsf = {"inf": math.inf, "loose": truth * 1.5 + 0.5}[level]
    pairs = list(case.space.start_pairs())[::3]
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    cmin, rmin = case.tables.cmin, case.tables.rmin
    bounds = relaxed_subset_bounds(case.space, case.oracle, case.tables)
    rec = Recorder()
    with rec.watching():
        dist, ie, je = dp.expand_subsets_stacked(
            case.oracle, case.space, i_idx, j_idx, bsf, cmin, rmin,
            chained=True)
        check_best_first(case, bounds)
    for s, (i, j) in enumerate(pairs):
        want_d, want = case.expand(i, j, bsf, None, cmin, rmin, None)
        got = None
        if ie[s] >= 0 and dist[s] < bsf:
            got = (i, int(ie[s]), j, int(je[s]))
        assert got == want
        if want is not None:
            assert dist[s] == want_d
            bsf = want_d
    assert any(dropped and carried for dropped, carried in rec.compactions)


# ----------------------------------------------------------------------
# The cell budget
# ----------------------------------------------------------------------
@seed(SEED)
@settings(max_examples=30, deadline=None)
@given(ref.cases(), st.sampled_from([16, 48, 96]), st.integers(1, 4))
def test_admissions_wait_under_tiny_budget(drawn, cells, k):
    """A tiny ``STACK_BLOCK_CELLS`` holds a few rows at a time: every
    buffer fits it (one row may exceed it alone), admissions wait for
    room, and the loops still answer like the reference."""
    case, rng = drawn
    bounds = case.bounds(rng, False)
    rec = Recorder()
    with budget(cells), rec.watching():
        check_best_first(case, bounds)
        check_topk(case, bounds, k)
    fits = [rows * cols <= cells or rows == 1 for rows, cols in rec.shapes]
    assert all(fits)


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(ref.cases(), st.sampled_from([40, 64]), st.sampled_from([1, 5, 1024]),
       st.sampled_from([1, 2, 3]), st.booleans(),
       st.sampled_from(["none", "loose", "exact"]))
def test_evicted_rows_rejoin_in_order(drawn, cells, block_size, stride,
                                      subset, seed_kind):
    """A budget of a few rows evicts the latest rows as the others
    deepen; they rejoin from the cursor.  Bests of rows past the cursor
    (finished and compacted before the eviction) must not floor them,
    so the answers stay the reference loop's, ties included."""
    case, rng = drawn
    bounds = ref.strided(case.bounds(rng, subset), stride, 0)
    bsf0, best0 = ref.seeds_for(case, seed_kind)
    with ref.patched(block_size, cells, dp.SCALAR_AREA_LIMIT):
        check_best_first(case, bounds, bsf0, best0)


def test_evicted_rows_ignore_later_compacted_bests():
    """A fixed case of the above (dense, cross mode, a 3-point grid)
    where, under a 40-cell budget, a row finished and was compacted
    after a live row that the budget then evicted.  Floored by that
    later row's best, the evicted row rejoined too low and lost the
    tie-breaking witness."""
    rng = np.random.default_rng(8)
    case = ref.Case(rng, cross=True, lazy=False, metric="euclidean", grid=3,
                    xi=2)
    bounds = case.bounds(rng, True)
    bsf0, best0 = ref.seeds_for(case, "loose")
    with ref.patched(5, 40, dp.SCALAR_AREA_LIMIT):
        check_best_first(case, ref.strided(bounds, 2, 0), bsf0, best0)


def test_tiny_budget_makes_admissions_wait():
    case = walk_case(80, 2, SEED)
    bounds = relaxed_subset_bounds(case.space, case.oracle, case.tables)
    rec = Recorder()
    with budget(48), rec.watching():
        check_best_first(case, bounds)
    assert any(admitted < admissible
               for _, admitted, admissible in rec.admissions)
    assert max(rows for rows, _ in rec.shapes) > 1


# ----------------------------------------------------------------------
# Infinite threshold
# ----------------------------------------------------------------------
@seed(SEED)
@settings(max_examples=30, deadline=None)
@given(ref.cases(), st.integers(1, 5))
def test_single_admission_under_infinite_threshold(drawn, k):
    """With no cut yet, only the subsets that can set one join: one for
    BTM, ``k`` for top-k (fewer when the block is shorter)."""
    case, rng = drawn
    bounds = case.bounds(rng, False)
    for loop, first in (("btm", 1), ("topk", k)):
        rec = Recorder()
        with rec.watching():
            if loop == "btm":
                check_best_first(case, bounds)
            else:
                check_topk(case, bounds, k)
        _, admitted, admissible = rec.admissions[0]
        assert admitted == admissible == min(first, len(bounds))


# ----------------------------------------------------------------------
# Row-major ties
# ----------------------------------------------------------------------
@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(ref.cases(), st.sampled_from([30, 60, 200]),
       st.sampled_from([None, 64]), st.integers(1, 4),
       st.sampled_from([None, 0.5, 2.0]))
def test_row_major_ties_on_dense_oracle(drawn, area_limit, cells, k,
                                       seed_at):
    """Dense rectangles up to ``SCALAR_AREA_LIMIT`` cells resolve ties
    row-major, larger ones anti-diagonal; a patched-small limit mixes
    both in one frontier, on tie-heavy integer grids, with and without
    an unwitnessed seed threshold."""
    case, rng = drawn
    case.oracle = case.dense
    bounds = case.bounds(rng, False)
    truth = ref.seeds_for(case, "exact")[0]
    bsf0 = math.inf if seed_at is None else truth * seed_at
    with budget(cells, area_limit):
        check_best_first(case, bounds, bsf0)
        check_topk(case, bounds, k)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def test_rounds_end_with_the_last_consumed_subset():
    """On a fixed 300-point self-mode input the rounds of a discover are
    at most the largest admission round plus depth of a subset the loop
    consumed: the frontier stops once the loop has what it needs."""
    case = walk_case(300, 6, 300)
    bounds = relaxed_subset_bounds(case.space, case.oracle, case.tables)
    rec = Recorder()
    with rec.watching():
        run_best_first(case.oracle, case.space, bounds, case.tables,
                       SearchStats())
    (frontier, rounds), = rec.rounds.items()
    consumed = [key for key in rec.consumed if key[0] == frontier]
    assert consumed
    last = max(rec.finished[key] for key in consumed)
    for key in consumed:
        depth = rec.finished[key] - rec.admitted[key]
        assert depth >= 1
    assert rounds <= last
