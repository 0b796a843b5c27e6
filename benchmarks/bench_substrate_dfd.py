"""Substrate benchmark: the DFD implementations themselves.

Not a paper figure, but the O(l^2) DFD computation is the unit cost the
whole paper optimises around; this tracks the relative cost of the DP,
the decision-based binary search, and the memoised recurrence -- and,
for the corpus paths that verify many candidate pairs, the absolute
time of one kernel call per pair against one stacked call for all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import (
    dfd_decision,
    dfd_matrix,
    dfd_matrix_by_search,
    dfd_matrix_recursive,
    ground_stack,
)

RNG = np.random.default_rng(0)
D_SMALL = RNG.random((64, 64)) * 100
D_LARGE = RNG.random((256, 256)) * 100

IMPLS = {
    "dp_row_scan": dfd_matrix,
    "binary_search_decision": dfd_matrix_by_search,
    "memoised_recurrence": dfd_matrix_recursive,
}


@pytest.mark.parametrize("impl", sorted(IMPLS))
def test_dfd_impl_small(benchmark, impl):
    benchmark.group = "substrate: DFD, 64x64"
    value = benchmark(IMPLS[impl], D_SMALL)
    assert value == pytest.approx(dfd_matrix(D_SMALL))


@pytest.mark.parametrize("impl", ["dp_row_scan", "binary_search_decision"])
def test_dfd_impl_large(benchmark, impl):
    benchmark.group = "substrate: DFD, 256x256"
    value = benchmark(IMPLS[impl], D_LARGE)
    assert value == pytest.approx(dfd_matrix(D_LARGE))


def test_decision_only(benchmark):
    benchmark.group = "substrate: DFD, 256x256"
    eps = float(np.median(D_LARGE))
    benchmark(dfd_decision, D_LARGE, eps)


# A join's verification step: P = 200 candidate pairs of 30-point walks
# (the corpus_join workload's shape), close enough that every pair
# reaches the exact decision.
_WALKS = RNG.normal(size=(400, 30, 2)).cumsum(axis=1)
PAIR_STACK, PAIR_LENGTHS = ground_stack(
    list(_WALKS[:200]), list(_WALKS[:200] + 0.3 * _WALKS[200:])
)
PAIR_EPS = float(np.median(PAIR_STACK))


def _per_pair(kernel, *args):
    return [kernel(d, *args) for d in PAIR_STACK]


@pytest.mark.parametrize("form", ["per_pair", "stacked"])
def test_pair_batched_value(benchmark, form):
    benchmark.group = "substrate: DFD of 200 pairs of 30x30, ms"
    if form == "stacked":
        values = benchmark(dfd_matrix, PAIR_STACK, PAIR_LENGTHS)
    else:
        values = benchmark(_per_pair, dfd_matrix)
    assert list(values) == [dfd_matrix(d) for d in PAIR_STACK]


@pytest.mark.parametrize("form", ["per_pair", "stacked"])
def test_pair_batched_decision(benchmark, form):
    benchmark.group = "substrate: DFD <= eps for 200 pairs of 30x30, ms"
    if form == "stacked":
        answers = benchmark(dfd_decision, PAIR_STACK, PAIR_EPS, PAIR_LENGTHS)
    else:
        answers = benchmark(_per_pair, dfd_decision, PAIR_EPS)
    assert list(answers) == [dfd_matrix(d) <= PAIR_EPS for d in PAIR_STACK]


# One pair, two forms: the 2-D row scan against a stack of one.  The
# paths that check one pair at a time (the range descent's per-leaf
# representative bound, the closest-pair scan) call the 2-D form; these
# rows record where it still wins.
SINGLE_PAIRS = {
    side: ground_stack(*RNG.normal(size=(2, 1, side, 2)).cumsum(axis=2))
    for side in (8, 40)
}


@pytest.mark.parametrize("side", [8, 40])
@pytest.mark.parametrize("form", ["row_scan_2d", "stack_of_one"])
def test_single_pair(benchmark, form, side):
    benchmark.group = f"substrate: DFD of one {side}x{side} pair"
    stack, lengths = SINGLE_PAIRS[side]
    if form == "stack_of_one":
        value = benchmark(dfd_matrix, stack, lengths)[0]
    else:
        value = benchmark(dfd_matrix, stack[0])
    assert value == dfd_matrix_recursive(stack[0])


def test_continuous_frechet(benchmark):
    """Continuous vs discrete: the continuous value never exceeds the
    discrete one, and densifying a curve only matters discretely."""
    from repro.distances import continuous_frechet, discrete_frechet

    rng = np.random.default_rng(1)
    p = rng.normal(size=(24, 2)).cumsum(axis=0)
    q = rng.normal(size=(28, 2)).cumsum(axis=0)
    benchmark.group = "substrate: continuous Frechet (24x28, tol 1e-4)"
    value = benchmark(continuous_frechet, p, q, 1e-4)
    assert value <= discrete_frechet(p, q) + 1e-3
