"""Triangle-inequality constraint matrix and its spectral structure."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from dualmds import (
    ConstraintMatrix,
    ConstraintViolation,
    DissimilarityMatrix,
    PairIndex,
    SquaredDistanceMatrix,
    TripleConstraint,
    basis_gram,
    constraint_gram,
    constraint_matrix,
    gram_identity_check,
    num_constraints,
    num_pairs,
    predicted_singular_values,
    violations,
)
from dualmds import basis
from dualmds.errors import DomainError, ResourceLimitError
from dualmds.basis import integer_deviation, pair_overlaps
from dualmds.nearness import _has_triangle_rows, constraint_gram_deviation
from dualmds.pairspace import linear_index, pair_arrays

import oracles

# hand-checked rows of the four-point constraint matrix,
# keyed by (positive pair, opposite vertex)
KNOWN_ROWS_N4 = {
    ((1, 2), 3): (1, [1, -1, 0, -1, 0, 0]),
    ((1, 3), 2): (2, [-1, 1, 0, -1, 0, 0]),
    ((2, 3), 1): (3, [-1, -1, 0, 1, 0, 0]),
    ((2, 3), 4): (10, [0, 0, 0, 1, -1, -1]),
}


def euclidean_dissimilarities(n, r, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, r))
    diff = pts[:, None, :] - pts[None, :, :]
    return DissimilarityMatrix(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


class TestCounts:
    @pytest.mark.parametrize("n,rows", [(3, 3), (4, 12), (5, 30), (10, 360)])
    def test_row_count(self, n, rows):
        assert num_constraints(n) == rows
        A = constraint_matrix(n)
        assert A.num_rows == rows
        assert A.num_cols == num_pairs(n)

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_nonzeros(self, n):
        A = constraint_matrix(n).to_dense()
        assert np.count_nonzero(A) == 3 * num_constraints(n)
        # each pair sits on one triangle per remaining vertex, once per slot
        np.testing.assert_array_equal(
            np.count_nonzero(A, axis=0), 3 * (n - 2)
        )

    def test_rejects_too_few_points(self):
        with pytest.raises(DomainError):
            constraint_matrix(2)


class TestKnownRows:
    def test_four_point_rows(self):
        dense = constraint_matrix(4).to_dense()
        A = constraint_matrix(4)
        for (pos, apex), (row, pattern) in KNOWN_ROWS_N4.items():
            assert A.row_of(PairIndex(*pos, 4), apex) == row
            np.testing.assert_array_equal(dense[row - 1], pattern)

    def test_row_one_unpacked(self):
        c = constraint_matrix(4).constraint(1)
        assert (c.positive.i, c.positive.j) == (1, 2)
        assert {(p.i, p.j) for p in c.negatives} == {(1, 3), (2, 3)}
        assert c.third_vertex == 3

    def test_row_ten_unpacked(self):
        c = constraint_matrix(4).constraint(10)
        assert (c.positive.i, c.positive.j) == (2, 3)
        assert {(p.i, p.j) for p in c.negatives} == {(2, 4), (3, 4)}
        assert c.third_vertex == 4


class TestRowAddressing:
    def test_round_trip_every_row(self):
        A = constraint_matrix(5)
        for row in range(1, A.num_rows + 1):
            c = A.constraint(row)
            assert A.row_of(c.positive, c.third_vertex) == row

    def test_row_out_of_range(self):
        A = constraint_matrix(4)
        for row in (0, 13, -1):
            with pytest.raises(DomainError):
                A.constraint(row)

    def test_row_of_rejects_degenerate_triple(self):
        A = constraint_matrix(4)
        with pytest.raises(DomainError):
            A.row_of(PairIndex(1, 2, 4), 2)
        with pytest.raises(DomainError):
            A.row_of(PairIndex(1, 2, 4), 5)


class TestTripleConstraint:
    def test_rejects_repeated_pairs(self):
        p = PairIndex(1, 2, 4)
        with pytest.raises(DomainError):
            TripleConstraint(positive=p, negatives=(p, PairIndex(1, 3, 4)))

    def test_rejects_pairs_from_two_triples(self):
        with pytest.raises(DomainError):
            TripleConstraint(
                positive=PairIndex(1, 2, 4),
                negatives=(PairIndex(1, 3, 4), PairIndex(2, 4, 4)),
            )

    def test_third_vertex(self):
        c = TripleConstraint(
            positive=PairIndex(2, 4, 5),
            negatives=(PairIndex(2, 5, 5), PairIndex(4, 5, 5)),
        )
        assert c.third_vertex == 5


class TestDenseAndSparseAgree:
    @pytest.mark.parametrize("n", [3, 4, 6, 9, 12])
    def test_matches_definition(self, n):
        np.testing.assert_array_equal(
            constraint_matrix(n).to_dense(), oracles.constraint_dense(n)
        )

    @pytest.mark.parametrize("n", [3, 5])
    def test_triplets_rebuild_dense(self, n):
        A = constraint_matrix(n)
        rebuilt = np.zeros((A.num_rows, A.num_cols), dtype=np.int64)
        for row, col, sign in A.triplets():
            rebuilt[row - 1, col - 1] = sign
        np.testing.assert_array_equal(rebuilt, A.to_dense())

    @pytest.mark.parametrize("n", range(3, 13))
    def test_triplets_match_row_loop_oracle(self, n):
        trips = constraint_matrix(n).triplets()
        assert trips.dtype == np.int64
        np.testing.assert_array_equal(trips, oracles.constraint_triplets_by_rows(n))

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("lines", [1, 9, 20, 63])
    def test_triplet_blocks_concatenate_to_triplets(self, n, lines):
        # 1 and 9 lines give one triple per block; 20 lines give two and
        # 63 give seven, which divide C(n, 3) only at some n
        A = constraint_matrix(n)
        blocks = list(A.triplet_blocks(lines))
        per_block = max(1, lines // 9)
        assert [len(b) for b in blocks[:-1]] == [9 * per_block] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= 9 * per_block
        np.testing.assert_array_equal(np.concatenate(blocks), A.triplets())

    @pytest.mark.parametrize("start, stop", [(0, 1), (3, 7), (19, None), (0, 20), (5, 5)])
    def test_triplets_of_a_range(self, start, stop):
        # n = 6 has 20 triples; rows 3t+1 ... 3t+3 belong to triple t
        trips = constraint_matrix(6).triplets(start, stop)
        full = np.array(oracles.constraint_triplets_by_rows(6), dtype=np.int64).reshape(-1, 3)
        rows = full[:, 0]
        stop = 20 if stop is None else stop
        np.testing.assert_array_equal(trips, full[(rows > 3 * start) & (rows <= 3 * stop)])

    @pytest.mark.parametrize("n", range(3, 31))
    def test_triples_are_lexicographic_combinations(self, n):
        edges = constraint_matrix(n).edges
        assert edges.dtype == np.int64
        first, second = pair_arrays(n)
        decoded = np.stack([first[edges], second[edges]], axis=-1) + 1
        triples = np.array(list(combinations(range(1, n + 1), 3)), dtype=np.int64)
        np.testing.assert_array_equal(decoded, triples[:, [[0, 1], [0, 2], [1, 2]]])

    def test_edges_are_the_only_per_row_array(self):
        A = constraint_matrix(5)
        assert ConstraintMatrix.__slots__ == ("n", "edges")
        assert A.edges.shape == (10, 3) and not A.edges.flags.writeable

    def test_construction_peaks_below_32_bytes_per_row(self):
        # edges hold 8 bytes per row; the rest is construction's temporaries
        tracemalloc.start()
        try:
            A = constraint_matrix(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * A.num_rows

    def test_triplets_sorted(self):
        trips = constraint_matrix(4).triplets().tolist()
        assert trips == sorted(trips)

    def test_every_row_one_plus_two_minus(self):
        A = constraint_matrix(7).to_dense()
        np.testing.assert_array_equal((A == 1).sum(axis=1), 1)
        np.testing.assert_array_equal((A == -1).sum(axis=1), 2)
        np.testing.assert_array_equal(A.sum(axis=1), -1)

    def test_apply_matches_dense_product(self):
        A = constraint_matrix(6)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(A.num_cols)
        np.testing.assert_allclose(A.apply(x), A.to_dense() @ x, atol=1e-12)

    def test_apply_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            constraint_matrix(4).apply(np.ones(5))

    def test_to_dense_refused_by_the_estimate_before_allocating(self, monkeypatch):
        A = constraint_matrix(5)
        need = 8 * A.num_rows * A.num_cols
        monkeypatch.setattr(basis, "available_memory", lambda: need)
        np.testing.assert_array_equal(A.to_dense(), oracles.constraint_dense(5))

        def forbidden(*args):
            raise AssertionError("allocated before the memory estimate")
        monkeypatch.setattr(basis, "available_memory", lambda: need - 1)
        monkeypatch.setattr(ConstraintMatrix, "_dense_rows", forbidden)
        with pytest.raises(ResourceLimitError, match="dense constraint matrix"):
            A.to_dense()

    @pytest.mark.parametrize("n, entries", [(3, 1), (5, 25), (6, 10**6), (7, 100)])
    def test_dense_blocks_stack_to_dense(self, n, entries):
        A = constraint_matrix(n)
        blocks = list(A.dense_blocks(entries))
        rows = max(1, entries // A.num_cols)
        assert [b.shape[0] for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        np.testing.assert_array_equal(np.vstack(blocks), oracles.constraint_dense(n))


class TestGramIdentity:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_exact_integer_identity(self, n):
        holds, deviation = gram_identity_check(n)
        assert holds
        assert deviation == 0

    def test_gram_diagonal_counts_column_nonzeros(self):
        for n in (3, 5, 8):
            G = constraint_gram(n)
            assert G.dtype == np.int64
            np.testing.assert_array_equal(np.diag(G), 3 * (n - 2))

    def test_gram_matches_dense_product(self):
        for n in (3, 4, 6):
            A = constraint_matrix(n).to_dense()
            np.testing.assert_array_equal(constraint_gram(n), A.T @ A)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_gram_matches_scatter_oracle(self, n):
        G = constraint_matrix(n).gram()
        assert G.dtype == np.int64
        np.testing.assert_array_equal(G, oracles.constraint_gram_by_scatter(n))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_gram_matches_dense_oracle_product(self, n):
        A = oracles.constraint_dense(n).astype(np.int64)
        G = constraint_matrix(n).gram()
        assert G.dtype == np.int64
        np.testing.assert_array_equal(G, A.T @ A)

    def test_gram_holds_one_pair_sized_array(self):
        # the +1 count and the -1 scatter share one L x L int64 array; a
        # second one would put the peak above 2 arrays
        A = constraint_matrix(30)
        tracemalloc.start()
        try:
            A.gram()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * 8 * A.num_cols ** 2

    @pytest.mark.parametrize("entry", [(0, 0), (2, 7), (9, 9)])
    def test_deviation_counts_one_wrong_entry(self, entry):
        n = 5
        gram = constraint_gram(n)
        H = basis_gram(n).entries
        assert integer_deviation(H, gram, 1, 3 * n - 2) == 0
        gram[entry] -= 3
        assert integer_deviation(H, gram, 1, 3 * n - 2) == 3


def _with_edges(A, edges):
    """A constraint matrix for A's n with the given edge columns."""
    B = object.__new__(ConstraintMatrix)
    B.n, B.edges = A.n, edges
    return B


def _dense_deviation(A):
    """The oracle: every entry of A^T A + M M^T - (3n-4) I."""
    return integer_deviation(A.gram(), pair_overlaps(A.n), 1, 3 * A.n - 4)


def _mutated(A, kind, t):
    """A copy of A with triple t broken in one way."""
    edges = A.edges.copy()
    if kind == "disjoint_pair":
        # slot t % 3 gets a pair disjoint from the next slot's edge
        first, second = pair_arrays(A.n)
        s = t % 3
        other = edges[t, (s + 1) % 3]
        ends = {first[other], second[other]}
        edges[t, s] = next(c for c in range(A.num_cols)
                           if not ends & {first[c], second[c]})
    elif kind == "equal_slots":
        edges[t, 2] = edges[t, 1]
    elif kind == "duplicated_triple":
        edges[(t + 1) % len(edges)] = edges[t]
    return _with_edges(A, edges)


class TestStructuralRoute:
    """The constraint-Gram test by A's row structure, against the dense route."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_equals_the_dense_oracle(self, n):
        A = constraint_matrix(n)
        assert _has_triangle_rows(A)
        assert constraint_gram_deviation(A) == _dense_deviation(A) == 0

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_triple_order_is_free(self, n):
        A = constraint_matrix(n)
        order = np.random.default_rng(n).permutation(len(A.edges))
        B = _with_edges(A, A.edges[order])
        assert _has_triangle_rows(B)
        assert constraint_gram_deviation(B) == 0

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_permuted_slots_keep_the_identity(self, n):
        # the triple's three rows are permuted among themselves, so A^T A
        # is unchanged, whichever route the test takes
        A = constraint_matrix(n)
        for t in (0, len(A.edges) - 1):
            edges = A.edges.copy()
            edges[t] = edges[t, [2, 0, 1]]
            B = _with_edges(A, edges)
            assert constraint_gram_deviation(B) == _dense_deviation(B) == 0

    @pytest.mark.parametrize("kind", ["disjoint_pair", "equal_slots", "duplicated_triple"])
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_mutation_fails_and_falls_back_to_the_oracle(self, n, kind):
        A = constraint_matrix(n)
        for t in (0, len(A.edges) // 2, len(A.edges) - 1):
            B = _mutated(A, kind, t)
            assert not _has_triangle_rows(B)
            deviation = constraint_gram_deviation(B)
            assert deviation == _dense_deviation(B) > 0

    @pytest.mark.parametrize("slot, pair", [(1, (3, 4)), (2, (3, 4)), (2, (2, 5))])
    def test_moved_vertex_fails(self, slot, pair):
        # triple (1, 2, 4) keeps its colex rank, but one edge leaves it
        A = constraint_matrix(5)
        cols = [linear_index(i, j, 5) - 1 for i, j in ((1, 2), (1, 4), (2, 4))]
        t = int(np.flatnonzero((A.edges == cols).all(axis=1))[0])
        edges = A.edges.copy()
        edges[t, slot] = linear_index(*pair, 5) - 1
        B = _with_edges(A, edges)
        assert not _has_triangle_rows(B)
        assert constraint_gram_deviation(B) == _dense_deviation(B) > 0

    @pytest.mark.parametrize("column", [-1, 10])
    def test_column_out_of_range_is_refused(self, column):
        A = constraint_matrix(5)
        edges = A.edges.copy()
        edges[3, 1] = column
        B = _with_edges(A, edges)
        assert not _has_triangle_rows(B)
        with pytest.raises(DomainError, match="columns must lie"):
            constraint_gram_deviation(B)

    def test_missing_triple_fails(self):
        A = constraint_matrix(6)
        B = _with_edges(A, A.edges[:-1])
        assert not _has_triangle_rows(B)
        assert constraint_gram_deviation(B) == _dense_deviation(B) > 0


class TestPredictedSingularValues:
    def test_four_points(self):
        expected = [(np.sqrt(8.0), 2), (np.sqrt(6.0), 3), (np.sqrt(2.0), 1)]
        for (v, m), (ev, em) in zip(predicted_singular_values(4), expected):
            assert v == pytest.approx(ev, abs=1e-15)
            assert m == em

    def test_three_points_drops_empty_group(self):
        assert predicted_singular_values(3) == [(2.0, 2), (1.0, 1)]

    def test_five_points(self):
        vals = predicted_singular_values(5)
        assert [m for _, m in vals] == [5, 4, 1]
        assert vals[0][0] == pytest.approx(np.sqrt(11.0))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_multiplicities_fill_pair_space(self, n):
        assert sum(m for _, m in predicted_singular_values(n)) == num_pairs(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_actual_singular_values(self, n):
        A = constraint_matrix(n).to_dense().astype(float)
        observed = np.linalg.svd(A, compute_uv=False)
        expected = np.concatenate(
            [np.full(m, v) for v, m in predicted_singular_values(n)]
        )
        np.testing.assert_allclose(observed, expected, atol=1e-9)

    def test_rejects_too_few_points(self):
        with pytest.raises(DomainError):
            predicted_singular_values(2)


class TestDissimilarityMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            DissimilarityMatrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            DissimilarityMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            DissimilarityMatrix([[1.0, 1.0], [1.0, 0.0]])

    def test_upper_entries_canonical_order(self):
        D = DissimilarityMatrix(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        )
        np.testing.assert_array_equal(D.upper_entries(), [1.0, 2.0, 3.0])


class TestViolations:
    def test_metric_data_is_clean(self):
        for n, r, seed in [(4, 2, 0), (8, 3, 1), (12, 5, 2)]:
            assert violations(euclidean_dissimilarities(n, r, seed)) == []

    def test_zero_matrix_is_clean(self):
        assert violations(DissimilarityMatrix(np.zeros((4, 4)))) == []

    def test_single_broken_triangle(self):
        D = DissimilarityMatrix(
            [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        )
        found = violations(D)
        assert len(found) == 1
        v = found[0]
        assert isinstance(v, ConstraintViolation)
        assert (v.constraint.positive.i, v.constraint.positive.j) == (1, 3)
        assert v.constraint.third_vertex == 2
        assert v.slack == pytest.approx(1.0)
        assert v.row == constraint_matrix(3).row_of(PairIndex(1, 3, 3), 2)

    def test_tolerance_is_strict(self):
        D = DissimilarityMatrix(
            [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        )
        assert len(violations(D, tol=0.5)) == 1
        assert violations(D, tol=1.0) == []

    def test_multiple_violations_sorted_by_row(self):
        # one long edge breaks a triangle in every triple containing it
        E = np.ones((4, 4)) - np.eye(4)
        E[0, 1] = E[1, 0] = 10.0
        found = violations(DissimilarityMatrix(E))
        rows = [v.row for v in found]
        assert rows == sorted(rows)
        assert rows == [1, 4]
        for v in found:
            assert (v.constraint.positive.i, v.constraint.positive.j) == (1, 2)
            assert v.slack == pytest.approx(8.0)

    def test_rejects_squared_distances_type(self):
        D2 = SquaredDistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(TypeError, match="squared"):
            violations(D2)

    def test_rejects_raw_arrays(self):
        with pytest.raises(TypeError):
            violations(np.zeros((3, 3)))
