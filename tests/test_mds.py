"""Distance-to-Gram conversion, both construction routes, and embedding."""

import numpy as np
import pytest

from dualmds import (
    EmbeddingResult,
    GramMatrix,
    PointConfiguration,
    SquaredDistanceMatrix,
    double_center,
    dual_expansion,
    embed,
    expand_coefficients,
    is_euclidean,
    measure_coefficients,
    num_pairs,
    procrustes_residual,
    squared_distances,
)
from dualmds import mds
from dualmds.errors import DomainError, NonEuclideanError

import oracles

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
# squared side/diagonal lengths of the unit square, pairs in canonical order
UNIT_SQUARE_D2 = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
COLLINEAR_D2 = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
# violates the triangle inequality even after square roots: 3 > 1 + 1
IMPOSSIBLE_D2 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])


def random_points(n, r, seed):
    rng = np.random.default_rng(seed)
    return PointConfiguration(rng.standard_normal((n, r)))


class TestSquaredDistances:
    def test_unit_square(self):
        D = squared_distances(PointConfiguration(UNIT_SQUARE))
        np.testing.assert_array_equal(D.upper_entries(), UNIT_SQUARE_D2)

    def test_matches_quadratic_form(self):
        P = random_points(7, 3, seed=1)
        D = squared_distances(P).entries
        for i in range(7):
            for j in range(7):
                gap = P.points[i] - P.points[j]
                assert D[i, j] == pytest.approx(float(gap @ gap), abs=1e-12)

    def test_coincident_points(self):
        P = PointConfiguration(np.zeros((4, 2)))
        np.testing.assert_array_equal(squared_distances(P).entries, np.zeros((4, 4)))

    def test_exactly_symmetric(self):
        D = squared_distances(random_points(30, 5, seed=2)).entries
        np.testing.assert_array_equal(D, D.T)


class TestDoubleCenter:
    def test_two_point_fixture(self):
        X = double_center(SquaredDistanceMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(
            X.entries, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        raw = rng.uniform(0.0, 3.0, size=(n, n))
        D = np.triu(raw, 1) + np.triu(raw, 1).T
        X = double_center(SquaredDistanceMatrix(D)).entries
        np.testing.assert_allclose(X, oracles.double_center_brute(D), atol=1e-13)

    def test_gram_of_centered_points_is_fixed_point(self):
        P = random_points(6, 2, seed=3)
        centered = P.points - P.points.mean(axis=0)
        G = centered @ centered.T
        X = double_center(squared_distances(P)).entries
        np.testing.assert_allclose(X, G, atol=1e-12)


class TestExpandCoefficients:
    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            expand_coefficients(np.ones(5), n=4)

    def test_negative_weights_allowed(self):
        X = expand_coefficients([-1.0, 2.0, -3.0], n=3)
        assert np.max(np.abs(X - X.T)) == 0.0
        assert np.max(np.abs(X.sum(axis=1))) <= 1e-14

    def test_linear_in_weights(self):
        rng = np.random.default_rng(4)
        c1 = rng.standard_normal(num_pairs(6))
        c2 = rng.standard_normal(num_pairs(6))
        lhs = expand_coefficients(2.0 * c1 - 0.5 * c2, n=6)
        rhs = 2.0 * expand_coefficients(c1, n=6) - 0.5 * expand_coefficients(c2, n=6)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_single_atom(self):
        weights = np.zeros(num_pairs(4))
        weights[0] = 1.0
        X = expand_coefficients(weights, n=4)
        np.testing.assert_allclose(X, oracles.dual_matrix(1, 2, 4), atol=1e-15)


class TestTwoRoutesAgree:
    """The atom-sum route never touches the centering-projection route."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 15])
    def test_on_point_derived_distances(self, n):
        P = random_points(n, min(3, n - 1), seed=n)
        D = squared_distances(P)
        gap = dual_expansion(D).entries - double_center(D).entries
        scale = max(1.0, float(np.max(np.abs(D.entries))))
        assert np.max(np.abs(gap)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_on_arbitrary_dissimilarities(self, n):
        # agreement is a linear-algebra fact, not a Euclidean one
        rng = np.random.default_rng(100 + n)
        raw = rng.uniform(0.0, 5.0, size=(n, n))
        D = SquaredDistanceMatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        gap = dual_expansion(D).entries - double_center(D).entries
        assert np.max(np.abs(gap)) <= 1e-12

    def test_unit_square_exact_quarters(self):
        D = squared_distances(PointConfiguration(UNIT_SQUARE))
        for X in (double_center(D).entries, dual_expansion(D).entries):
            np.testing.assert_allclose(4.0 * X, np.rint(4.0 * X), atol=1e-12)


class TestMeasureCoefficients:
    def test_reads_squared_distances_off_gram(self):
        P = random_points(8, 3, seed=5)
        X = double_center(squared_distances(P))
        np.testing.assert_allclose(
            measure_coefficients(X),
            squared_distances(P).upper_entries(),
            atol=1e-12,
        )

    def test_unit_square_coefficients(self):
        X = double_center(squared_distances(PointConfiguration(UNIT_SQUARE)))
        np.testing.assert_allclose(measure_coefficients(X), UNIT_SQUARE_D2, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    def test_inverts_expansion(self, n):
        D = SquaredDistanceMatrix(
            squared_distances(random_points(n, min(2, n - 1), seed=n)).entries
        )
        X = dual_expansion(D)
        np.testing.assert_allclose(
            measure_coefficients(X), D.upper_entries(), atol=1e-12
        )

    def test_expansion_inverts_measurement(self):
        # expand(measure(X)) == X for any centered Gram matrix
        P = random_points(6, 4, seed=6)
        X = double_center(squared_distances(P)).entries
        rebuilt = expand_coefficients(
            measure_coefficients(GramMatrix(X)), n=6
        )
        np.testing.assert_allclose(rebuilt, X, atol=1e-12)


class TestIsEuclidean:
    def test_collinear_is_euclidean(self):
        ok, lam_min = is_euclidean(SquaredDistanceMatrix(COLLINEAR_D2))
        assert ok
        assert abs(lam_min) <= 1e-12

    def test_triangle_violation_is_not(self):
        ok, lam_min = is_euclidean(SquaredDistanceMatrix(IMPOSSIBLE_D2))
        assert not ok
        assert lam_min < -0.1

    def test_point_derived_always_passes(self):
        for n, r, seed in [(4, 2, 7), (10, 3, 8), (25, 6, 9)]:
            D = squared_distances(random_points(n, r, seed))
            ok, _ = is_euclidean(D)
            assert ok

    def test_tolerance_is_respected(self):
        D = SquaredDistanceMatrix(IMPOSSIBLE_D2)
        _, lam_min = is_euclidean(D)
        assert is_euclidean(D, tol=2 * abs(lam_min))[0]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_invalid_tolerance_rejected_before_centering(self, tol, monkeypatch):
        from dualmds import mds

        def refuse(D):
            raise AssertionError("decomposed despite an invalid tolerance")

        monkeypatch.setattr(mds, "double_center", refuse)
        D = squared_distances(PointConfiguration(UNIT_SQUARE))
        with pytest.raises(DomainError, match="tolerance"):
            is_euclidean(D, tol=tol)
        with pytest.raises(DomainError, match="tolerance"):
            embed(D, tol=tol)

    def test_zero_tolerance_allowed(self):
        D = SquaredDistanceMatrix(IMPOSSIBLE_D2)
        assert is_euclidean(D, tol=0.0) == is_euclidean(D)


class TestEmbed:
    def test_unit_square_geometry(self):
        D = squared_distances(PointConfiguration(UNIT_SQUARE))
        result = embed(D, r=2)
        assert result.rank == 2
        np.testing.assert_allclose(result.eigenvalues, [1.0, 1.0], atol=1e-12)
        assert result.discarded_mass <= 1e-12
        assert procrustes_residual(
            result.points, PointConfiguration(UNIT_SQUARE)
        ) <= 1e-7

    @pytest.mark.parametrize("n,r", [(5, 1), (8, 3), (20, 5)])
    def test_round_trip_up_to_rigid_motion(self, n, r):
        P = random_points(n, r, seed=10 * n + r)
        result = embed(squared_distances(P), r=r)
        assert result.rank == r
        scale = float(np.max(np.abs(P.points)))
        assert procrustes_residual(result.points, P) <= 1e-7 * max(1.0, scale)

    def test_auto_rank_detection(self):
        P = random_points(9, 2, seed=11)
        result = embed(squared_distances(P))
        assert result.rank == 2
        assert result.points.r == 2

    def test_eigenvalues_positive_descending(self):
        result = embed(squared_distances(random_points(12, 5, seed=12)))
        assert np.all(result.eigenvalues > 0)
        assert np.all(np.diff(result.eigenvalues) <= 0)

    def test_truncation_accounts_discarded_mass(self):
        P = random_points(6, 3, seed=13)
        full = embed(squared_distances(P))
        cut = embed(squared_distances(P), r=1)
        assert cut.rank == 1
        dropped = float(np.sum(full.eigenvalues[1:]))
        assert cut.discarded_mass == pytest.approx(dropped, rel=1e-9)

    def test_zero_distances_give_empty_embedding(self):
        result = embed(SquaredDistanceMatrix(np.zeros((5, 5))))
        assert result.rank == 0
        assert result.points.r == 0
        assert result.eigenvalues.size == 0
        assert result.discarded_mass == 0.0

    def test_requested_zero_dimensions(self):
        D = squared_distances(random_points(4, 2, seed=14))
        result = embed(D, r=0)
        assert result.rank == 0
        assert result.discarded_mass == pytest.approx(
            float(np.trace(double_center(D).entries)), rel=1e-9
        )

    def test_padding_beyond_detected_rank_warns(self):
        D = squared_distances(PointConfiguration(UNIT_SQUARE))
        with pytest.warns(UserWarning, match="detected rank"):
            result = embed(D, r=3)
        assert result.rank == 2
        assert result.points.r == 3
        np.testing.assert_array_equal(result.points.points[:, 2], 0.0)

    def test_dimension_out_of_range(self):
        D = squared_distances(random_points(4, 2, seed=15))
        with pytest.raises(DomainError):
            embed(D, r=4)
        with pytest.raises(DomainError):
            embed(D, r=-1)

    def test_non_euclidean_raises_with_certificate(self):
        with pytest.raises(NonEuclideanError) as excinfo:
            embed(SquaredDistanceMatrix(IMPOSSIBLE_D2))
        assert excinfo.value.lambda_min < -0.1

    def test_non_euclidean_judged_before_dimension(self):
        with pytest.raises(NonEuclideanError):
            embed(SquaredDistanceMatrix(IMPOSSIBLE_D2), r=5)

    @pytest.mark.parametrize("n,r,seed", [(3, 1, 20), (10, 3, 21), (30, 4, 22)])
    def test_lambda_min_is_that_of_is_euclidean(self, n, r, seed):
        D = squared_distances(random_points(n, r, seed))
        assert embed(D).lambda_min == is_euclidean(D)[1]

    @pytest.mark.parametrize("scale", [0.25, 0.5, 0.99, 1.01, 2.0, 4.0])
    def test_verdict_agrees_with_is_euclidean(self, scale):
        D = SquaredDistanceMatrix(IMPOSSIBLE_D2)
        _, lam_min = is_euclidean(D)
        lam_max = float(np.linalg.eigvalsh(double_center(D).entries)[-1])
        tol = scale * abs(lam_min) / lam_max
        ok, _ = is_euclidean(D, tol=tol)
        assert ok == (scale > 1)
        if ok:
            assert embed(D, tol=tol).lambda_min == lam_min
        else:
            with pytest.raises(NonEuclideanError) as excinfo:
                embed(D, tol=tol)
            assert excinfo.value.lambda_min == lam_min

    def test_collinear_embeds_on_a_line(self):
        result = embed(SquaredDistanceMatrix(COLLINEAR_D2))
        assert result.rank == 1
        x = np.sort(result.points.points[:, 0])
        np.testing.assert_allclose(np.diff(x), [1.0, 1.0], atol=1e-7)


class TestEmbeddingResultValidation:
    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(DomainError):
            EmbeddingResult(
                points=PointConfiguration(np.zeros((3, 1))),
                eigenvalues=np.array([0.0]),
                discarded_mass=0.0,
                lambda_min=0.0,
                rank=1,
            )

    def test_rejects_rank_mismatch(self):
        with pytest.raises(DomainError):
            EmbeddingResult(
                points=PointConfiguration(np.zeros((3, 1))),
                eigenvalues=np.array([1.0, 2.0]),
                discarded_mass=0.0,
                lambda_min=0.0,
                rank=1,
            )

    def test_rejects_impossible_rank(self):
        with pytest.raises(DomainError):
            EmbeddingResult(
                points=PointConfiguration(np.eye(3)[:, :2]),
                eigenvalues=np.array([2.0, 1.0, 0.5]),
                discarded_mass=0.0,
                lambda_min=0.0,
                rank=3,
            )


class TestProcrustesResidual:
    def test_identical_configurations(self):
        P = random_points(6, 2, seed=16)
        assert procrustes_residual(P, P) == pytest.approx(0.0, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(17)
        P = random_points(8, 3, seed=17)
        # random rotation via QR, plus a translation
        Q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = PointConfiguration(P.points @ Q_mat + rng.standard_normal(3))
        assert procrustes_residual(P, moved) <= 1e-10

    def test_reflection_invariance(self):
        P = random_points(5, 2, seed=18)
        flipped = PointConfiguration(P.points * np.array([-1.0, 1.0]))
        assert procrustes_residual(P, flipped) <= 1e-12

    def test_pads_narrower_configuration(self):
        P = random_points(6, 2, seed=19)
        widened = PointConfiguration(
            np.hstack([P.points, np.zeros((6, 1))])
        )
        assert procrustes_residual(P, widened) <= 1e-12

    def test_scaling_is_not_free(self):
        P = random_points(7, 2, seed=20)
        centered = P.points - P.points.mean(axis=0)
        doubled = PointConfiguration(2.0 * P.points)
        expected = float(np.linalg.norm(centered))
        assert procrustes_residual(P, doubled) == pytest.approx(expected, rel=1e-9)

    def test_rejects_different_point_counts(self):
        with pytest.raises(DomainError):
            procrustes_residual(
                random_points(4, 2, seed=21), random_points(5, 2, seed=21)
            )

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
    def test_resolves_small_perturbations(self, delta):
        # the old sqrt(|A|^2 + |B|^2 - 2 |A^T B|_*) cancelled below ~1e-8
        rng = np.random.default_rng(23)
        P = random_points(40, 3, seed=23)
        recovered = embed(squared_distances(P)).points.points
        A = recovered - recovered.mean(axis=0)
        Z = rng.standard_normal(A.shape)
        Z -= Z.mean(axis=0)
        noisy = A + delta * np.linalg.norm(A) / np.linalg.norm(Z) * Z
        Q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = PointConfiguration(noisy @ Q_mat + rng.standard_normal(3))
        for other in (PointConfiguration(noisy), moved):
            rel = procrustes_residual(PointConfiguration(recovered), other) / np.linalg.norm(A)
            assert delta / 2 <= rel <= 2 * delta


def low_rank_distances(n, r, seed, scale=1.0):
    """Squared distances of n seeded standard-normal points in R^r, times scale."""
    P = random_points(n, r, seed)
    return P, SquaredDistanceMatrix(scale * squared_distances(P).entries)


def prescribed_spectrum(n, eigenvalues, seed):
    """Squared distances whose Gram matrix has exactly these nonzero eigenvalues.

    The points are orthonormal centered columns scaled by square roots,
    so the Gram eigenvalues are the given ones up to roundoff.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, len(eigenvalues)))
    Q, _ = np.linalg.qr(X - X.mean(axis=0))
    return squared_distances(PointConfiguration(Q * np.sqrt(eigenvalues)))


def dense_embed(monkeypatch, D, **kwargs):
    """embed(D) with the certified route switched off."""
    with monkeypatch.context() as m:
        m.setattr(mds, "CERTIFIED_MIN_N", D.n + 1)
        result = embed(D, **kwargs)
    assert result.route == "dense"
    return result


class TestCertifiedRoute:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_agrees_with_dense_eigendecomposition(self, r, seed, monkeypatch):
        n = 500 + 20 * r
        P, D = low_rank_distances(n, r, seed=seed + 10 * r)
        cert = embed(D)
        assert cert.route == "certified"
        assert cert.rank == r
        s = cert.residual_norm
        assert cert.lambda_min == -s
        dense = dense_embed(monkeypatch, D)
        assert dense.rank == r
        assert np.all(np.abs(cert.eigenvalues - dense.eigenvalues) <= s)
        assert dense.lambda_min >= -s
        assert dense.discarded_mass <= cert.discarded_mass
        scale = np.linalg.norm(P.points - P.points.mean(axis=0))
        assert procrustes_residual(cert.points, dense.points) <= 1e-12 * scale
        # the same sign convention, so no reflection is needed either
        assert np.max(np.abs(cert.points.points - dense.points.points)) <= 1e-12 * scale
        assert procrustes_residual(cert.points, P) <= 1e-12 * scale
        # truncation keeps the discarded-mass bound above the dense sum
        cut = embed(D, r=1)
        assert cut.route == "certified"
        assert dense_embed(monkeypatch, D, r=1).discarded_mass <= cut.discarded_mass

    def test_no_dense_eigensolve_on_certified_input(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on certified input")

        _, D = low_rank_distances(600, 3, seed=40)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(mds, "sym_eig", refuse)
        result = embed(D, r=3)
        assert result.route == "certified"
        assert result.rank == 3

    def test_non_euclidean_input_runs_dense_route(self):
        _, D = low_rank_distances(500, 3, seed=41)
        E = D.entries.copy()
        E[0, 1] = E[1, 0] = 100.0 * E.max()
        D = SquaredDistanceMatrix(E)
        assert mds._certified_spectrum(D, mds.DEFAULT_RANK_TOL) is None
        with pytest.raises(NonEuclideanError) as excinfo:
            embed(D)
        assert excinfo.value.lambda_min == is_euclidean(D)[1]

    def test_full_rank_input_reaches_the_pivot_cap(self, monkeypatch):
        _, D = low_rank_distances(500, 100, seed=42)
        assert mds._certified_spectrum(D, mds.DEFAULT_RANK_TOL) is None
        result = embed(D)
        assert result.route == "dense"
        assert result.rank == 100
        # the cap, not the certificate, turned it away
        monkeypatch.setattr(mds, "CERTIFIED_MAX_PIVOTS", 128)
        raised = embed(D)
        assert raised.route == "certified"
        assert raised.rank == 100

    @pytest.mark.parametrize("ratio, route, rank", [
        (1.0, "dense", None),
        (100.0, "certified", 3),
        (0.01, "certified", 2),
    ])
    def test_eigenvalue_at_the_rank_threshold(self, ratio, route, rank):
        tol = mds.DEFAULT_RANK_TOL
        D = prescribed_spectrum(500, [1000.0, 500.0, ratio * tol * 1000.0], seed=43)
        result = embed(D, tol=tol)
        assert result.route == route
        if rank is not None:
            assert result.rank == rank

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_route_and_rank_do_not_depend_on_units(self, c):
        _, D = low_rank_distances(500, 4, seed=44, scale=c)
        result = embed(D)
        assert (result.route, result.rank) == ("certified", 4)

    def test_padding_beyond_detected_rank_warns(self):
        _, D = low_rank_distances(500, 2, seed=45)
        with pytest.warns(UserWarning, match="detected rank"):
            result = embed(D, r=4)
        assert result.route == "certified"
        assert result.rank == 2
        assert result.points.r == 4
        np.testing.assert_array_equal(result.points.points[:, 2:], 0.0)

    def test_below_threshold_stays_dense(self):
        _, D = low_rank_distances(mds.CERTIFIED_MIN_N - 1, 3, seed=46)
        result = embed(D)
        assert result.route == "dense"
        assert result.residual_norm is None
