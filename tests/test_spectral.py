"""Deterministic eigendecomposition and multiplicity grouping."""

import numpy as np
import pytest

from dualmds import basis_gram, group_spectrum, sym_eig
from dualmds.spectral import spectrum_verdict, sym_eigvals
from dualmds.errors import DomainError
from dualmds.spectral import _normalize_signs

from oracles import normalize_signs_by_columns


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(3))
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        vals, vecs = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)
        # sign convention: the dominant component of each column is positive
        assert vecs[0, 0] > 0 and vecs[1, 1] > 0

    def test_atom_gram_four_points(self):
        vals, _ = sym_eig(basis_gram(4).entries)
        np.testing.assert_allclose(vals, [8, 4, 4, 4, 2, 2], atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 5, 20, 60, 200])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        S = rng.standard_normal((dim, dim))
        M = S + S.T
        vals, vecs = sym_eig(M)
        scale = float(np.max(np.abs(M)))
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - M)) <= 1e-8 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(dim))) <= 1e-8

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        S = rng.standard_normal((12, 12))
        vals, _ = sym_eig(S + S.T)
        assert np.all(np.diff(vals) <= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((9, 9))
        M = S + S.T
        vals1, vecs1 = sym_eig(M)
        vals2, vecs2 = sym_eig(M.copy())
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)

    def test_sign_convention_flips_negative_leads(self):
        # eigenvector of [[0,1],[1,0]] for eigenvalue -1 is (1,-1)/sqrt(2);
        # both columns must come back with a positive dominant entry
        _, vecs = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for k in range(2):
            lead = np.argmax(np.abs(vecs[:, k]))
            assert vecs[lead, k] > 0

    @pytest.mark.parametrize("dim", [1, 2, 7, 40])
    def test_signs_match_column_loop(self, dim):
        rng = np.random.default_rng(100 + dim)
        S = rng.standard_normal((dim, dim))
        M = S + S.T
        _, vecs = sym_eig(M)
        _, raw = np.linalg.eigh(M)
        expected = normalize_signs_by_columns(raw[:, ::-1])
        assert np.array_equal(vecs, expected)
        assert np.array_equal(np.signbit(vecs), np.signbit(expected))

    def test_signs_ties_go_to_lowest_index(self):
        V = np.array([
            [0.5, -0.5, 0.0, -0.0, 0.25],
            [-0.5, 0.5, -0.75, 0.0, 0.5],
            [0.25, 0.5, 0.75, -0.0, -0.5],
        ])
        expected = normalize_signs_by_columns(V)
        _normalize_signs(V)
        assert np.array_equal(V, expected)
        assert np.array_equal(np.signbit(V), np.signbit(expected))
        # each tied column is led by its first largest-magnitude entry
        assert V[0, 0] == 0.5 and V[0, 1] == 0.5 and V[1, 2] == 0.75
        assert V[1, 4] == 0.5

    def test_signs_empty(self):
        vals, vecs = sym_eig(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            sym_eig(np.zeros((2, 3)))


class TestSymEigvals:
    @pytest.mark.parametrize("dim", [1, 2, 5, 20, 60, 200])
    def test_matches_sym_eig_values(self, dim):
        rng = np.random.default_rng(dim)
        S = rng.standard_normal((dim, dim))
        M = S + S.T
        vals = sym_eigvals(M)
        expected, _ = sym_eig(M)
        assert vals.shape == (dim,)
        assert np.all(np.diff(vals) <= 0)
        assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_atom_gram_four_points(self):
        np.testing.assert_allclose(sym_eigvals(basis_gram(4).entries),
                                   [8, 4, 4, 4, 2, 2], atol=1e-9)

    def test_empty(self):
        assert sym_eigvals(np.zeros((0, 0))).shape == (0,)

    @pytest.mark.parametrize("M", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 3)),
                                   np.zeros(4)])
    def test_rejects_as_sym_eig_does(self, M):
        with pytest.raises(DomainError) as vals_error:
            sym_eigvals(M)
        with pytest.raises(DomainError) as eig_error:
            sym_eig(M)
        assert str(vals_error.value) == str(eig_error.value)


class TestGroupSpectrum:
    def test_example_with_near_ties(self):
        report = group_spectrum([8.0, 4.0000001, 3.9999999, 2.0], rel_tol=1e-6)
        assert [m for _, m in report.groups] == [1, 2, 1]
        reps = [r for r, _ in report.groups]
        assert reps[0] == pytest.approx(8.0)
        assert reps[1] == pytest.approx(4.0, abs=1e-9)
        assert reps[2] == pytest.approx(2.0)

    def test_all_equal_collapses(self):
        report = group_spectrum([5.0] * 6)
        assert report.groups == ((5.0, 6),)

    def test_atom_gram_six_points(self):
        vals, _ = sym_eig(basis_gram(6).entries)
        report = group_spectrum(vals, rel_tol=1e-8)
        assert [m for _, m in report.groups] == [1, 5, 9]
        np.testing.assert_allclose([r for r, _ in report.groups], [12.0, 6.0, 2.0],
                                   atol=1e-9)

    def test_multiplicities_sum_to_dimension(self):
        rng = np.random.default_rng(11)
        S = rng.standard_normal((15, 15))
        vals, _ = sym_eig(S + S.T)
        report = group_spectrum(vals)
        assert sum(m for _, m in report.groups) == 15

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            group_spectrum([1.0, 2.0])

    def test_empty_input(self):
        assert group_spectrum([]).groups == ()


class TestSpectrumVerdict:
    def test_matching_groups_pass_and_print_rounded(self):
        vals = [8.0 + 1e-12, 4.0, 4.0, 4.0, 2.0, 2.0]
        assert spectrum_verdict(vals, [(8.0, 1), (4.0, 3), (2.0, 2)]) == \
            (True, [(8.0, 1), (4.0, 3), (2.0, 2)])

    @pytest.mark.parametrize("expected", [
        [(8.0, 1), (4.0, 2), (2.0, 3)],          # wrong multiplicities
        [(8.0, 1), (4.0 + 1e-6, 3), (2.0, 2)],   # value off by more than the tolerance
        [(8.0, 1), (4.0, 5)],                    # wrong number of groups
    ])
    def test_mismatch_fails(self, expected):
        ok, groups = spectrum_verdict([8.0, 4.0, 4.0, 4.0, 2.0, 2.0], expected)
        assert ok is False
        assert groups == [(8.0, 1), (4.0, 3), (2.0, 2)]
