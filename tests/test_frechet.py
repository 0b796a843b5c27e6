"""Unit and property tests for the discrete Frechet distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distances import (
    dfd_decision,
    dfd_matrix,
    dfd_matrix_by_search,
    dfd_matrix_recursive,
    discrete_frechet,
    frechet_path,
)
from repro.errors import TrajectoryError

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.floats(0.0, 100.0, allow_nan=False),
)

point_seqs = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 10), st.just(2)),
    elements=st.floats(-50.0, 50.0, allow_nan=False),
)


class TestKnownValues:
    def test_identical_sequences(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert discrete_frechet(p, p) == 0.0

    def test_parallel_lines(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        q = p + np.array([0.0, 3.0])
        assert discrete_frechet(p, q) == pytest.approx(3.0)

    def test_single_points(self):
        assert discrete_frechet([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_classic_backtrack_case(self):
        # The dog must wait: max is forced by the far excursion.
        p = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        q = np.array([[0.0, 1.0], [5.0, 8.0], [10.0, 1.0]])
        assert discrete_frechet(p, q) == pytest.approx(8.0)

    def test_value_is_a_ground_distance(self):
        rng = np.random.default_rng(0)
        d = rng.random((7, 9))
        assert dfd_matrix(d) in d

    def test_haversine_metric_option(self):
        p = np.array([[40.0, 116.0], [40.001, 116.0]])
        assert discrete_frechet(p, p, metric="haversine") == 0.0


class TestImplementationAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_implementations_agree(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.random((rng.integers(1, 15), rng.integers(1, 15))) * 10
        reference = dfd_matrix(d)
        assert dfd_matrix_recursive(d) == pytest.approx(reference)
        assert dfd_matrix_by_search(d) == pytest.approx(reference)

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_search_equals_dp(self, d):
        assert dfd_matrix_by_search(d) == pytest.approx(dfd_matrix(d))

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_recursive_equals_dp(self, d):
        assert dfd_matrix_recursive(d) == pytest.approx(dfd_matrix(d))


class TestMetricProperties:
    @given(point_seqs, point_seqs)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, p, q):
        assert discrete_frechet(p, q) == pytest.approx(discrete_frechet(q, p))

    @given(point_seqs, point_seqs, point_seqs)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        pq = discrete_frechet(p, q)
        qr = discrete_frechet(q, r)
        pr = discrete_frechet(p, r)
        assert pr <= pq + qr + 1e-9

    @given(point_seqs)
    @settings(max_examples=30, deadline=None)
    def test_identity(self, p):
        assert discrete_frechet(p, p) == 0.0

    @given(point_seqs, point_seqs)
    @settings(max_examples=30, deadline=None)
    def test_bounded_below_by_endpoints(self, p, q):
        lower = max(
            np.linalg.norm(p[0] - q[0]), np.linalg.norm(p[-1] - q[-1])
        )
        assert discrete_frechet(p, q) >= lower - 1e-9


class TestDecision:
    @pytest.mark.parametrize("seed", range(6))
    def test_decision_matches_value(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.random((10, 8)) * 5
        value = dfd_matrix(d)
        assert dfd_decision(d, value)
        assert dfd_decision(d, value + 1e-9)
        assert not dfd_decision(d, value - 1e-9)

    def test_decision_is_monotone(self):
        rng = np.random.default_rng(9)
        d = rng.random((12, 12))
        value = dfd_matrix(d)
        grid = np.linspace(0, d.max(), 25)
        answers = [dfd_decision(d, eps) for eps in grid]
        assert answers == sorted(answers)  # False... then True...
        assert [eps >= value for eps in grid] == answers

    def test_blocked_start(self):
        d = np.array([[5.0, 0.0], [0.0, 0.0]])
        assert not dfd_decision(d, 1.0)

    def test_single_cell(self):
        assert dfd_decision(np.array([[2.0]]), 2.0)
        assert not dfd_decision(np.array([[2.0]]), 1.9)


class TestPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_path_realises_value(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.random((9, 7)) * 10
        value, path = frechet_path(d)
        assert value == pytest.approx(dfd_matrix(d))
        assert path[0] == (0, 0)
        assert path[-1] == (8, 6)
        # Monotone staircase steps only.
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}
        # The path's max ground distance equals the DFD.
        assert max(d[i, j] for i, j in path) == pytest.approx(value)


class TestValidation:
    def test_empty_matrix_rejected(self):
        with pytest.raises(TrajectoryError):
            dfd_matrix(np.empty((0, 3)))

    def test_1d_rejected(self):
        with pytest.raises(TrajectoryError):
            dfd_matrix(np.zeros(4))

    def test_recursive_size_guard(self):
        with pytest.raises(TrajectoryError):
            dfd_matrix_recursive(np.zeros((600, 600)))

    def test_accepts_trajectory_objects(self, small_walk):
        assert discrete_frechet(small_walk, small_walk) == 0.0
