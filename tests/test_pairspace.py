"""Pair indexing and the core matrix value types."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualmds import (
    CenteringMatrix,
    GramMatrix,
    PairIndex,
    PointConfiguration,
    SquaredDistanceMatrix,
    centering_matrix,
    linear_to_pair,
    num_pairs,
    pair_to_linear,
)
from dualmds.errors import DomainError
from dualmds.pairspace import linear_index, pair_arrays

import oracles


class TestPairIndex:
    def test_valid_pair(self):
        p = PairIndex(2, 5, 6)
        assert (p.i, p.j, p.n) == (2, 5, 6)

    @pytest.mark.parametrize("i,j,n", [(2, 2, 4), (3, 2, 4), (0, 1, 4), (1, 5, 4)])
    def test_invalid_pairs_raise(self, i, j, n):
        with pytest.raises(DomainError):
            PairIndex(i, j, n)

    def test_tiny_n_raises(self):
        with pytest.raises(DomainError):
            PairIndex(1, 2, 1)


class TestLinearIndexing:
    @pytest.mark.parametrize("i,j,n,k", [(1, 2, 4, 1), (3, 4, 4, 6), (2, 3, 4, 4)])
    def test_pair_to_linear_examples(self, i, j, n, k):
        assert pair_to_linear(PairIndex(i, j, n)) == k
        assert PairIndex(i, j, n).linear == k

    @pytest.mark.parametrize("k,n,i,j", [(1, 4, 1, 2), (6, 4, 3, 4), (5, 5, 2, 3)])
    def test_linear_to_pair_examples(self, k, n, i, j):
        p = linear_to_pair(k, n)
        assert (p.i, p.j) == (i, j)

    def test_round_trip_everywhere(self):
        for n in range(2, 70):
            pairs = [linear_to_pair(k, n) for k in range(1, num_pairs(n) + 1)]
            assert [(p.i, p.j) for p in pairs] == oracles.lex_pairs(n)
            assert [pair_to_linear(p) for p in pairs] == list(range(1, num_pairs(n) + 1))

    @pytest.mark.parametrize("n", [10**6, 10**7 + 3])
    def test_round_trip_at_large_n(self, n):
        # the closed form is exact integer arithmetic, with no loop over rows
        L = num_pairs(n)
        for k, (i, j) in [(1, (1, 2)), (n - 1, (1, n)), (n, (2, 3)),
                          (L - 2, (n - 2, n - 1)), (L, (n - 1, n))]:
            p = linear_to_pair(k, n)
            assert (p.i, p.j) == (i, j)
        for k in (L // 3, L // 2 + 1, L - 3):
            assert pair_to_linear(linear_to_pair(k, n)) == k

    def test_matches_lexicographic_enumeration(self):
        for n in range(2, 12):
            listed = [(p.i, p.j) for p in
                      (linear_to_pair(k, n) for k in range(1, num_pairs(n) + 1))]
            assert listed == oracles.lex_pairs(n)
            assert listed == sorted(listed)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_linear_index_on_arrays(self, n):
        prs = np.array(oracles.lex_pairs(n), dtype=np.int64)
        np.testing.assert_array_equal(
            linear_index(prs[:, 0], prs[:, 1], n), np.arange(1, num_pairs(n) + 1)
        )

    @pytest.mark.parametrize("k,n", [(0, 4), (7, 4), (-3, 5)])
    def test_linear_out_of_range(self, k, n):
        with pytest.raises(DomainError):
            linear_to_pair(k, n)

    @given(st.integers(2, 40), st.data())
    def test_round_trip_random(self, n, data):
        k = data.draw(st.integers(1, num_pairs(n)))
        assert pair_to_linear(linear_to_pair(k, n)) == k


class TestCenteringMatrix:
    def test_two_points(self):
        J = centering_matrix(2).entries
        np.testing.assert_allclose(J, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_four_points_entries(self):
        J = centering_matrix(4).entries
        assert np.allclose(np.diag(J), 0.75)
        off = J[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -0.25)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_idempotent_symmetric_annihilates_ones(self, n):
        J = centering_matrix(n).entries
        assert np.max(np.abs(J @ J - J)) <= 1e-12
        assert np.max(np.abs(J - J.T)) <= 1e-12
        assert np.max(np.abs(J @ np.ones(n))) <= 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            centering_matrix(1)

    def test_entries_frozen(self):
        J = centering_matrix(3).entries
        with pytest.raises(ValueError):
            J[0, 0] = 99.0


class TestSquaredDistanceMatrix:
    def test_accepts_valid(self):
        D = SquaredDistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert D.n == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            SquaredDistanceMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            SquaredDistanceMatrix([[1.0, 1.0], [1.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            SquaredDistanceMatrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SquaredDistanceMatrix([[0.0, np.inf], [np.inf, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            SquaredDistanceMatrix(np.zeros((2, 3)))

    def test_tolerance_is_configurable(self):
        entries = [[0.0, 1.0 + 5e-7], [1.0, 0.0]]
        with pytest.raises(DomainError):
            SquaredDistanceMatrix(entries)

    def test_upper_entries_lexicographic(self):
        D = np.zeros((4, 4))
        value = 0.0
        for i, j in oracles.lex_pairs(4):
            value += 1.0
            D[i - 1, j - 1] = D[j - 1, i - 1] = value
        got = SquaredDistanceMatrix(D).upper_entries()
        np.testing.assert_array_equal(got, np.arange(1.0, 7.0))

    def test_entries_frozen(self):
        D = SquaredDistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            D.entries[0, 1] = 1.0


class TestGramMatrix:
    def test_accepts_centered(self):
        X = GramMatrix([[0.25, -0.25], [-0.25, 0.25]])
        assert X.n == 2

    def test_rejects_uncentered(self):
        with pytest.raises(DomainError):
            GramMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, -1.0], [-0.5, 0.5]])
        with pytest.raises(DomainError):
            GramMatrix(M)


class TestPointConfiguration:
    def test_accepts_tall(self):
        P = PointConfiguration(np.zeros((5, 2)))
        assert (P.n, P.r) == (5, 2)

    def test_accepts_zero_width(self):
        assert PointConfiguration(np.zeros((3, 0))).r == 0

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_rejects_wide(self, shape):
        with pytest.raises(DomainError):
            PointConfiguration(np.zeros(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PointConfiguration([[np.nan], [0.0]])

    def test_rejects_one_dimensional(self):
        with pytest.raises(DomainError):
            PointConfiguration(np.zeros(4))


def test_centering_matrix_type_validates():
    with pytest.raises(DomainError):
        CenteringMatrix(0)


@pytest.mark.parametrize("n", range(61))
def test_pair_arrays_match_triu_indices(n):
    rows, cols = pair_arrays(n)
    expected_rows, expected_cols = np.triu_indices(n, 1)
    assert rows.dtype == cols.dtype == np.int64
    np.testing.assert_array_equal(rows, expected_rows)
    np.testing.assert_array_equal(cols, expected_cols)


def test_pair_arrays_allocate_only_their_output():
    # no n x n mask and no copies: the peak is the two L-long int64 arrays
    tracemalloc.start()
    try:
        rows, cols = pair_arrays(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (rows.nbytes + cols.nbytes)
