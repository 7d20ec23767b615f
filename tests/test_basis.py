"""Atom families, their Gram matrix, and its closed-form structure."""

import numpy as np
import pytest

from dualmds import (
    CenteringMatrix,
    PairIndex,
    basis_atom,
    basis_gram,
    centering_matrix,
    dual_atom,
    dual_atom_eigenpairs,
    dual_gram_entry,
    dual_gram_matrix,
    h_spectrum_predicted,
    linear_to_pair,
    num_pairs,
    sym_eig,
    triangular_graph_adjacency,
)
from dualmds.basis import (
    dual_atom_factors,
    incidence_gram,
    incidence_matrix,
    integer_deviation,
    overlap_spectrum,
    pair_overlaps,
)
from dualmds import basis
from dualmds.pairspace import pair_arrays
from dualmds.errors import DomainError, ResourceLimitError
from dualmds.spectral import sym_eigvals

import oracles


def _forbidden(*args, **kwargs):
    raise AssertionError("allocated before the memory estimate")

# hand-checked four-point objects, scaled to integers where needed
ATOM_12_N4 = np.array(
    [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
)
DUAL_12_N4_X16 = np.array(
    [[3, -5, 1, 1], [-5, 3, 1, 1], [1, 1, -1, -1], [1, 1, -1, -1]]
)
ATOM_GRAM_N4 = np.array(
    [
        [4, 1, 1, 1, 1, 0],
        [1, 4, 1, 1, 0, 1],
        [1, 1, 4, 0, 1, 1],
        [1, 1, 0, 4, 1, 1],
        [1, 0, 1, 1, 4, 1],
        [0, 1, 1, 1, 1, 4],
    ]
)
DUAL_GRAM_N4_X16 = np.array(
    [
        [5, -1, -1, -1, -1, 1],
        [-1, 5, -1, -1, 1, -1],
        [-1, -1, 5, 1, -1, -1],
        [-1, -1, 1, 5, -1, -1],
        [-1, 1, -1, -1, 5, -1],
        [1, -1, -1, -1, -1, 5],
    ]
)


def all_pairs(n):
    return [linear_to_pair(k, n) for k in range(1, num_pairs(n) + 1)]


class TestBasisAtom:
    def test_four_point_fixture(self):
        W = basis_atom(PairIndex(1, 2, 4)).entries
        np.testing.assert_array_equal(W, ATOM_12_N4)

    def test_smallest_case(self):
        W = basis_atom(PairIndex(1, 2, 2)).entries
        np.testing.assert_array_equal(W, [[1, -1], [-1, 1]])

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_structure_everywhere(self, n):
        for alpha in all_pairs(n):
            W = basis_atom(alpha).entries
            assert np.count_nonzero(W) == 4
            assert int(W.trace()) == 2
            assert np.array_equal(W, W.T)
            assert not np.any(W.sum(axis=1))
            # self inner product: four entries of magnitude 1
            assert float(np.sum(W * W)) == 4.0

    def test_matches_oracle(self):
        for n in (3, 6):
            for alpha in all_pairs(n):
                np.testing.assert_array_equal(
                    basis_atom(alpha).entries,
                    oracles.atom_matrix(alpha.i, alpha.j, n),
                )


class TestDualAtom:
    def test_four_point_fixture_scaled_integers(self):
        V = dual_atom(PairIndex(1, 2, 4)).materialize()
        assert np.max(np.abs(16.0 * V - DUAL_12_N4_X16)) <= 1e-12

    def test_factors_are_centering_columns(self):
        v = dual_atom(PairIndex(2, 4, 5))
        J = oracles.centering(5)
        np.testing.assert_allclose(v.a, J[:, 1], atol=1e-15)
        np.testing.assert_allclose(v.b, J[:, 3], atol=1e-15)

    def test_materialize_is_cached_and_frozen(self):
        v = dual_atom(PairIndex(1, 3, 4))
        M1 = v.materialize()
        assert v.materialize() is M1
        with pytest.raises(ValueError):
            M1[0, 0] = 1.0

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_symmetric_zero_row_sums(self, n):
        for alpha in all_pairs(n):
            V = dual_atom(alpha).materialize()
            assert np.max(np.abs(V - V.T)) <= 1e-15
            assert np.max(np.abs(V.sum(axis=1))) <= 1e-14

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_rank_two_for_three_plus_points(self, n):
        for alpha in all_pairs(n)[:: max(1, num_pairs(n) // 6)]:
            sing = np.linalg.svd(dual_atom(alpha).materialize(), compute_uv=False)
            assert np.sum(sing > 1e-10) == 2

    def test_rank_one_at_two_points(self):
        sing = np.linalg.svd(dual_atom(PairIndex(1, 2, 2)).materialize(),
                             compute_uv=False)
        assert np.sum(sing > 1e-10) == 1

    @pytest.mark.parametrize("n", range(2, 31))
    def test_factors_are_centering_columns_bit_for_bit(self, n):
        J = centering_matrix(n).entries
        for alpha in all_pairs(n):
            v = dual_atom(alpha)
            a, b = oracles.dual_factors_from_centering(alpha.i, alpha.j, n)
            assert np.array_equal(v.a, a) and np.array_equal(v.b, b)
            assert np.array_equal(v.a, J[:, alpha.i - 1])
            assert np.array_equal(v.b, J[:, alpha.j - 1])

    @pytest.mark.parametrize("n", range(2, 31))
    def test_stacked_factors_are_the_single_atoms(self, n):
        rows, cols = pair_arrays(n)
        a, b = dual_atom_factors(n, rows, cols)
        assert a.shape == b.shape == (num_pairs(n), n)
        for k, alpha in enumerate(all_pairs(n)):
            v = dual_atom(alpha)
            assert np.array_equal(a[k], v.a) and np.array_equal(b[k], v.b)

    def test_builds_no_centering_matrix(self, monkeypatch):
        built = []
        original = CenteringMatrix.__init__

        def counted(self, n):
            built.append(n)
            original(self, n)

        monkeypatch.setattr(CenteringMatrix, "__init__", counted)
        for alpha in all_pairs(12):
            dual_atom(alpha)
        assert built == []


class TestBiorthogonality:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_exhaustive(self, n):
        pairs = all_pairs(n)
        for a_idx, alpha in enumerate(pairs):
            V = dual_atom(alpha).materialize()
            for b_idx, beta in enumerate(pairs):
                W = basis_atom(beta).entries
                inner = float(np.sum(V * W))
                target = 1.0 if a_idx == b_idx else 0.0
                assert abs(inner - target) <= 1e-12


class TestDualAtomEigenpairs:
    def test_four_point_values_and_vector(self):
        (lam1, u1), (lam2, u2) = dual_atom_eigenpairs(PairIndex(1, 2, 4))
        assert lam1 == 0.5
        assert lam2 == pytest.approx(-0.25)
        np.testing.assert_allclose(u1, [1.0, -1.0, 0.0, 0.0], atol=1e-15)
        V = dual_atom(PairIndex(1, 2, 4)).materialize()
        np.testing.assert_allclose(V @ u1, lam1 * u1, atol=1e-15)
        np.testing.assert_allclose(V @ u2, lam2 * u2, atol=1e-15)

    def test_ten_points(self):
        (lam1, _), (lam2, _) = dual_atom_eigenpairs(PairIndex(3, 7, 10))
        assert lam1 == pytest.approx(0.5)
        assert lam2 == pytest.approx(-0.4)

    def test_degenerate_two_points(self):
        (lam1, _), (lam2, _) = dual_atom_eigenpairs(PairIndex(1, 2, 2))
        assert lam1 == 0.5
        assert lam2 == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_reproduces_numerical_spectrum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            k = int(rng.integers(1, num_pairs(n) + 1))
            alpha = linear_to_pair(k, n)
            V = dual_atom(alpha).materialize()
            vals, _ = sym_eig(V)
            nonzero = vals[np.abs(vals) > 1e-10]
            assert nonzero.size == 2
            (lam1, u1), (lam2, u2) = dual_atom_eigenpairs(alpha)
            assert float(np.max(vals)) == pytest.approx(lam1, abs=1e-10)
            assert float(np.min(vals)) == pytest.approx(lam2, abs=1e-10)
            assert np.max(np.abs(V @ u1 - lam1 * u1)) <= 1e-10
            assert np.max(np.abs(V @ u2 - lam2 * u2)) <= 1e-10


class TestBasisGram:
    def test_four_point_fixture(self):
        H = basis_gram(4).entries
        np.testing.assert_array_equal(H, ATOM_GRAM_N4)

    def test_single_pair(self):
        np.testing.assert_array_equal(basis_gram(2).entries, [[4.0]])

    def test_case_rule_spot_values(self):
        H = basis_gram(5).entries
        col = {p: k for k, p in enumerate(oracles.lex_pairs(5))}
        assert H[col[(1, 2)], col[(1, 5)]] == 1.0
        assert H[col[(1, 2)], col[(3, 4)]] == 0.0
        assert H[col[(2, 3)], col[(2, 3)]] == 4.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_trace_inner_products(self, n):
        np.testing.assert_array_equal(basis_gram(n).entries, oracles.gram_by_traces(n))

    def test_positive_definite(self):
        for n in (3, 6, 9):
            vals, _ = sym_eig(basis_gram(n).entries)
            assert vals[-1] > 0

    def test_refused_by_the_estimate_before_allocating(self, monkeypatch):
        # the memory estimate is the only size rule: basis_gram builds at
        # its boundary and, one byte below it, refuses before any array
        n = 6
        need = basis.DENSE_BUILD_ARRAYS * num_pairs(n) ** 2 * 8
        monkeypatch.setattr(basis, "available_memory", lambda: need)
        np.testing.assert_array_equal(basis_gram(n).entries, oracles.gram_by_traces(n))
        monkeypatch.setattr(basis, "available_memory", lambda: need - 1)
        monkeypatch.setattr(basis, "pair_arrays", _forbidden)
        with pytest.raises(ResourceLimitError, match="basis_gram at n=6"):
            basis_gram(n)

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            basis_gram(1)


class TestTriangularGraph:
    @pytest.mark.parametrize("n", range(3, 16))
    def test_decomposition_exact(self, n):
        H = np.rint(basis_gram(n).entries).astype(int)
        A = triangular_graph_adjacency(n)
        L = num_pairs(n)
        np.testing.assert_array_equal(H - 4 * np.eye(L, dtype=int), A)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_row_sums_count_meeting_pairs(self, n):
        A = triangular_graph_adjacency(n)
        np.testing.assert_array_equal(A.sum(axis=1), 2 * (n - 2))

    def test_three_points_complete_graph(self):
        np.testing.assert_array_equal(
            triangular_graph_adjacency(3), np.ones((3, 3)) - np.eye(3)
        )

    @pytest.mark.parametrize("n", range(3, 16))
    def test_matches_set_intersection_oracle(self, n):
        A = triangular_graph_adjacency(n)
        assert A.dtype == np.int64
        np.testing.assert_array_equal(A, oracles.triangular_adjacency_by_sets(n))


class TestPairOverlaps:
    @pytest.mark.parametrize("block_rows", [None, 1, 5])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_set_intersection_oracle(self, n, block_rows, monkeypatch):
        # blocks of one or a few rows, the last one short, as past 2^20 entries
        if block_rows:
            monkeypatch.setattr(basis, "OVERLAP_BLOCK_ENTRIES", block_rows * num_pairs(n))
        overlaps = pair_overlaps(n)
        assert overlaps.dtype == np.uint8
        np.testing.assert_array_equal(overlaps, oracles.pair_overlaps_by_sets(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_incidence_has_two_ones_per_pair(self, n):
        M = incidence_matrix(n)
        assert M.shape == (num_pairs(n), n)
        for k, (i, j) in enumerate(oracles.lex_pairs(n)):
            np.testing.assert_array_equal(np.nonzero(M[k])[0], [i - 1, j - 1])

    @pytest.mark.parametrize("build, arrays", [
        (pair_overlaps, basis.OVERLAP_ARRAYS),
        (triangular_graph_adjacency, basis.DENSE_BUILD_ARRAYS),
        (dual_gram_matrix, basis.DENSE_BUILD_ARRAYS),
    ])
    def test_refused_by_the_estimate_before_allocating(self, build, arrays,
                                                       monkeypatch):
        n = 7
        need = arrays * num_pairs(n) ** 2 * 8
        monkeypatch.setattr(basis, "available_memory", lambda: need)
        assert build(n).shape == (num_pairs(n), num_pairs(n))
        monkeypatch.setattr(basis, "available_memory", lambda: need - 1)
        monkeypatch.setattr(basis, "incidence_matrix", _forbidden)
        with pytest.raises(ResourceLimitError, match=f"{build.__name__} at n=7"):
            build(n)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_counted_incidence_gram_is_the_product(self, n):
        M = incidence_matrix(n)
        G = incidence_gram(n)
        assert G.dtype == np.float64
        np.testing.assert_array_equal(G, M.T @ M)
        product_route = np.zeros(max(num_pairs(n), n))
        product_route[:n] = sym_eigvals(M.T @ M)
        assert overlap_spectrum(n).tobytes() == product_route[:num_pairs(n)].tobytes()

    @pytest.mark.parametrize("n", range(3, 16))
    def test_spectrum_matches_dense_decomposition(self, n):
        dense = np.linalg.eigvalsh(oracles.pair_overlaps_by_sets(n).astype(float))
        np.testing.assert_allclose(overlap_spectrum(n), dense[::-1], atol=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_spectrum_is_padded_with_exact_zeros(self, n):
        values = overlap_spectrum(n)
        L = num_pairs(n)
        assert values.shape == (L,)
        assert np.all(values[n:] == 0.0)
        np.testing.assert_allclose(values[:n], [2 * n - 2] + [n - 2] * (n - 1),
                                   atol=1e-12)


class TestIntegerDeviation:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_triangular_decomposition_is_zero(self, n):
        assert integer_deviation(basis_gram(n).entries,
                                 triangular_graph_adjacency(n), -1, 4) == 0

    def test_counts_a_wrong_diagonal_and_a_wrong_entry(self):
        H = basis_gram(5).entries
        A = triangular_graph_adjacency(5)
        assert integer_deviation(H, A, -1, 6) == 2
        A[1, 4] += 5
        assert integer_deviation(H, A, -1, 4) == 5

    def test_sign_adds_or_subtracts(self):
        H = np.array([[1.0, 2.0], [2.0, 1.0]])
        other = np.array([[0, 2], [2, 0]])
        assert integer_deviation(H, other, -1, 1) == 0
        assert integer_deviation(H, other, 1, 1) == 4

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_row_blocks_find_the_worst_entry(self, block, monkeypatch):
        monkeypatch.setattr(basis, "DEVIATION_BLOCK_ENTRIES", block)
        H = basis_gram(6).entries
        A = triangular_graph_adjacency(6)
        assert integer_deviation(H, A, -1, 4) == 0
        A[-1, 3] -= 9
        assert integer_deviation(H, A, -1, 4) == 9
        assert integer_deviation(H, A, -1, 2) == 9

    def test_rejects_other_signs(self):
        with pytest.raises(DomainError):
            integer_deviation(np.eye(2), np.eye(2, dtype=np.int64), 0, 1)


class TestHSpectrum:
    def test_four_points(self):
        assert h_spectrum_predicted(4) == [(2.0, 2), (4.0, 3), (8.0, 1)]

    def test_five_points(self):
        assert h_spectrum_predicted(5) == [(2.0, 5), (5.0, 4), (10.0, 1)]

    def test_degenerate_small_sizes(self):
        assert h_spectrum_predicted(2) == [(4.0, 1)]
        assert h_spectrum_predicted(3) == [(3.0, 2), (6.0, 1)]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_trace_identity(self, n):
        L = num_pairs(n)
        assert sum(v * m for v, m in h_spectrum_predicted(n)) == pytest.approx(4 * L)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_numerical_spectrum(self, n):
        from dualmds import group_spectrum

        vals, _ = sym_eig(basis_gram(n).entries)
        observed = group_spectrum(vals, rel_tol=1e-8)
        expected = sorted(h_spectrum_predicted(n), key=lambda g: -g[0])
        assert len(observed.groups) == len(expected)
        for (rep, mult), (val, target_mult) in zip(observed.groups, expected):
            assert mult == target_mult
            assert rep == pytest.approx(val, rel=1e-8)


class TestDualGram:
    def test_four_point_entries(self):
        p12 = PairIndex(1, 2, 4)
        p34 = PairIndex(3, 4, 4)
        assert dual_gram_entry(p12, p12) == pytest.approx(5 / 16, abs=1e-15)
        assert dual_gram_entry(p12, p34) == pytest.approx(1 / 16, abs=1e-15)

    def test_four_point_fixture_scaled_integers(self):
        G = dual_gram_matrix(4)
        assert np.max(np.abs(16.0 * G - DUAL_GRAM_N4_X16)) <= 1e-12

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(DomainError):
            dual_gram_entry(PairIndex(1, 2, 4), PairIndex(1, 2, 5))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_entries_match_trace_oracle(self, n):
        G = dual_gram_matrix(n)
        np.testing.assert_allclose(G, oracles.dual_gram_by_traces(n), atol=1e-13)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_is_inverse_of_atom_gram(self, n):
        H = basis_gram(n).entries
        G = dual_gram_matrix(n)
        assert np.max(np.abs(G @ H - np.eye(num_pairs(n)))) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 41))
    def test_bitwise_equal_to_gathers(self, n):
        G = dual_gram_matrix(n)
        O = oracles.dual_gram_by_gathers(n)
        assert G.dtype == O.dtype and G.shape == O.shape
        assert G.tobytes() == O.tobytes()

    @pytest.mark.parametrize("n", range(41, 121))
    def test_bitwise_equal_to_gathers_in_row_blocks(self, n):
        # every row meets all three orbits; three blocks of rows per size
        # keep the oracle's gathers small
        L = num_pairs(n)
        M = incidence_matrix(n)
        for start in (0, L // 2, L - 16):
            rows = np.arange(start, start + 16)
            overlaps = (M[rows] @ M.T).astype(np.uint8)
            G = dual_gram_matrix(n, overlaps=overlaps)
            assert G.tobytes() == oracles.dual_gram_by_gathers(n, rows).tobytes()

    def test_shared_overlaps_give_the_same_matrix(self):
        G = dual_gram_matrix(9, overlaps=pair_overlaps(9))
        assert G.tobytes() == dual_gram_matrix(9).tobytes()

    def test_entry_function_matches_matrix(self):
        n = 6
        pairs = all_pairs(n)
        G = dual_gram_matrix(n)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = int(rng.integers(len(pairs)))
            b = int(rng.integers(len(pairs)))
            assert dual_gram_entry(pairs[a], pairs[b]) == pytest.approx(
                G[a, b], abs=1e-14
            )
