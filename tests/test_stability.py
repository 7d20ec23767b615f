"""Noise amplification: the paper's bound, the attained worst case, trials."""

from fractions import Fraction

import numpy as np
import pytest

from dualmds import (
    NOISE_BOUND,
    NoiseMatrix,
    PointConfiguration,
    SquaredDistanceMatrix,
    amplification_factor,
    attained_amplification,
    dual_expansion,
    expand_coefficients,
    noise_experiment,
    perturbed_gram,
    squared_distances,
    worst_case_noise,
)
from dualmds import mds, pairspace, stability
from dualmds.mds import center_by_means
from dualmds.errors import DomainError

import oracles

# the paper's bound (amplification_factor), frozen from the exact rational
# brute force; an upper bound on the attained worst case, not the worst case
EXACT_FACTORS = {
    2: Fraction(1, 4),
    3: Fraction(8, 9),
    4: Fraction(11, 8),
    5: Fraction(43, 25),
    8: Fraction(37, 16),
    16: Fraction(23, 8),
}


def hollow_noise(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-scale, scale, size=(n, n))
    upper = np.triu(raw, 1)
    return NoiseMatrix(upper + upper.T)


class TestNoiseMatrix:
    def test_sup_norm(self):
        E = np.array([[0.0, -3.0], [-3.0, 0.0]])
        assert NoiseMatrix(E).sup_norm() == 3.0

    def test_negative_entries_allowed(self):
        NoiseMatrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            NoiseMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            NoiseMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            NoiseMatrix([[0.1, 1.0], [1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            NoiseMatrix([[0.0, np.inf], [np.inf, 0.0]])

    def test_entries_frozen(self):
        noise = hollow_noise(3, seed=0)
        with pytest.raises(ValueError):
            noise.entries[0, 1] = 9.0


class TestAmplificationFactor:
    @pytest.mark.parametrize("n,exact", sorted(EXACT_FACTORS.items()))
    def test_frozen_values(self, n, exact):
        assert Fraction(7 * n * n - 21 * n + 16, 2 * n * n) == exact
        assert amplification_factor(n) == float(exact)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_dyadic_sizes_exact(self, n):
        # every term is dyadic at these sizes, so equality is exact
        assert amplification_factor(n) == float(EXACT_FACTORS[n])

    def test_stays_below_bound(self):
        for n in range(2, 401):
            assert amplification_factor(n) < 3.5 < NOISE_BOUND, f"n={n}"

    def test_builds_nothing_n_by_n(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"centering matrix built at n={n}")

        monkeypatch.setattr(pairspace, "centering_matrix", refuse)
        monkeypatch.setattr(mds, "centering_matrix", refuse)
        assert 3.5 - 2e-5 < amplification_factor(10**6) < 3.5

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            amplification_factor(1)


class TestAttainedAmplification:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_exact_enumeration(self, n):
        # the closed form divides exact integers, so it rounds correctly
        exact = oracles.attained_amplification_exact(n)
        assert attained_amplification(n) == float(exact)

    @pytest.mark.parametrize("n,value", [(4, 0.75), (16, 1.5625),
                                         (64, 1.884765625)])
    def test_dyadic_values(self, n, value):
        assert attained_amplification(n) == value

    def test_below_the_paper_bound_and_two(self):
        assert attained_amplification(2) == amplification_factor(2) == 0.25
        previous = 0.0
        for n in range(3, 121):
            attained = attained_amplification(n)
            assert previous < attained < amplification_factor(n), f"n={n}"
            assert attained < 2.0, f"n={n}"
            previous = attained
        assert attained_amplification(10**6) == pytest.approx(2.0, abs=1e-5)

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            attained_amplification(1)


class TestWorstCaseNoise:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 12])
    def test_unit_sign_pattern(self, n):
        E = worst_case_noise(n).entries
        off = E[~np.eye(n, dtype=bool)]
        assert set(np.unique(off)) <= {-1.0, 1.0}
        assert np.all(np.diag(E) == 0.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_attains_worst_case_exactly(self, n):
        E = worst_case_noise(n).entries
        X = oracles.double_centered_exact(
            [[Fraction(int(v)) for v in row] for row in E]
        )
        peak = max(abs(v) for row in X for v in row)
        assert peak == oracles.attained_amplification_exact(n)

    def test_attains_closed_form_to_roundoff(self):
        for n in range(2, 70):
            noise = worst_case_noise(n)
            ratio = np.max(np.abs(center_by_means(noise.entries))) / noise.sup_norm()
            assert ratio == pytest.approx(attained_amplification(n), rel=1e-14)

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            worst_case_noise(1)


class TestGramPerturbation:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_exact_double_centering(self, n):
        rng = np.random.default_rng(100 + n)
        exact = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                value = Fraction(int(rng.integers(-999, 1000)),
                                 int(rng.integers(1, 1000)))
                exact[i][j] = exact[j][i] = value
        noise = NoiseMatrix([[float(v) for v in row] for row in exact])
        X = oracles.double_centered_exact(
            [[Fraction(v) for v in row] for row in noise.entries.tolist()]
        )
        expected = np.array([[float(v) for v in row] for row in X])
        np.testing.assert_allclose(center_by_means(noise.entries), expected,
                                   rtol=0, atol=1e-14 * noise.sup_norm())

    @pytest.mark.parametrize("n", [3, 5, 8, 16])
    def test_matches_atom_route_on_seeded_trials(self, n):
        # the atom route cancels the clean Gram matrix, so its roundoff
        # scales with |D| / epsilon: unit-order noise keeps it small
        for child in np.random.SeedSequence(5).spawn(20):
            rng = np.random.default_rng(child)
            D = squared_distances(PointConfiguration(rng.standard_normal((n, 2))))
            upper = np.triu(rng.uniform(-0.5, 0.5, size=(n, n)), 1)
            noise = NoiseMatrix(upper + upper.T)
            fast = center_by_means(noise.entries)
            witness = perturbed_gram(D, noise).entries - dual_expansion(D).entries
            assert np.max(np.abs(fast - witness)) <= 1e-12 * np.max(np.abs(fast))


class TestPerturbedGram:
    def test_zero_noise_is_clean_expansion(self):
        D = squared_distances(
            PointConfiguration(np.random.default_rng(1).standard_normal((5, 2)))
        )
        zero = NoiseMatrix(np.zeros((5, 5)))
        np.testing.assert_array_equal(
            perturbed_gram(D, zero).entries, dual_expansion(D).entries
        )

    def test_linearity_in_the_noise(self):
        rng = np.random.default_rng(2)
        D = squared_distances(PointConfiguration(rng.standard_normal((6, 3))))
        noise = hollow_noise(6, seed=3)
        delta = perturbed_gram(D, noise).entries - dual_expansion(D).entries
        rows, cols = np.triu_indices(6, 1)
        expected = expand_coefficients(noise.entries[rows, cols], n=6)
        np.testing.assert_allclose(delta, expected, atol=1e-13)

    def test_single_pair_worst_entry(self):
        # noise on one pair scales one dual atom; at n=4 its largest
        # entry is 5/16, and the arithmetic is dyadic-exact
        D = SquaredDistanceMatrix(np.zeros((4, 4)))
        E = np.zeros((4, 4))
        E[0, 1] = E[1, 0] = 0.5
        noise = NoiseMatrix(E)
        delta = perturbed_gram(D, noise).entries
        ratio = np.max(np.abs(delta)) / noise.sup_norm()
        assert ratio == 5.0 / 16.0

    def test_rejects_size_mismatch(self):
        D = SquaredDistanceMatrix(np.zeros((4, 4)))
        with pytest.raises(DomainError):
            perturbed_gram(D, NoiseMatrix(np.zeros((5, 5))))


class TestNoiseExperiment:
    def test_trial_matrices_are_exactly_symmetric_and_hollow(self, monkeypatch):
        seen = []
        validated = []

        def record(E):
            seen.append(E.copy())
            return mds.center_by_means(E)

        def count(self, original=NoiseMatrix.__post_init__):
            validated.append(self)
            original(self)

        monkeypatch.setattr(stability, "center_by_means", record)
        monkeypatch.setattr(NoiseMatrix, "__post_init__", count)
        noise_experiment(n=9, r=2, epsilon=0.3, trials=5, seed=4)
        assert len(seen) == 6  # five trials and the adversarial one
        for E in seen:
            np.testing.assert_array_equal(E, E.T)
            np.testing.assert_array_equal(np.diag(E), 0.0)
        # only the adversarial pattern is built as a NoiseMatrix
        assert len(validated) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            noise_experiment(n=4, r=2, epsilon=0.1, trials=0, seed=0)
        with pytest.raises(DomainError):
            noise_experiment(n=4, r=2, epsilon=0.0, trials=1, seed=0)
        with pytest.raises(DomainError):
            noise_experiment(n=4, r=2, epsilon=-1.0, trials=1, seed=0)
        with pytest.raises(DomainError):
            noise_experiment(n=4, r=0, epsilon=0.1, trials=1, seed=0)
        with pytest.raises(DomainError):
            noise_experiment(n=4, r=4, epsilon=0.1, trials=1, seed=0)

    @pytest.mark.parametrize("epsilon", [np.inf, 1e308, 4.5e307])
    def test_rejects_overflowing_noise_level(self, epsilon):
        with pytest.raises(DomainError):
            noise_experiment(n=3, r=1, epsilon=epsilon, trials=1, seed=0)

    def test_rejects_noise_whose_row_sums_overflow(self):
        # 4 * 1e307 is finite, but 64 such entries in one row are not
        with pytest.raises(DomainError):
            noise_experiment(n=64, r=2, epsilon=1e307, trials=1, seed=0)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-315])
    def test_rejects_subnormal_noise_level(self, epsilon):
        # at 5e-324 every entry is 0 or +-epsilon: the ratio was off by 100%
        with pytest.raises(DomainError, match="subnormal"):
            noise_experiment(n=3, r=1, epsilon=epsilon, trials=2, seed=0)

    def test_smallest_admissible_noise_level(self):
        tiny = noise_experiment(n=64, r=2, epsilon=np.finfo(float).tiny,
                                trials=20, seed=0)
        usual = noise_experiment(n=64, r=2, epsilon=0.01, trials=20, seed=0)
        assert tiny.passed
        assert tiny.max_ratio == pytest.approx(usual.max_ratio, rel=1e-12)

    def test_largest_admissible_noise_level(self):
        report = noise_experiment(n=64, r=2, epsilon=np.finfo(float).max / 64,
                                  trials=3, seed=0)
        assert report.passed

    def test_two_points_exact(self):
        # at n=2 every entry of -1/2 J E J is +-e/4, without rounding
        report = noise_experiment(n=2, r=1, epsilon=0.01, trials=1000, seed=0)
        assert report.max_ratio == 0.25
        assert report.passed

    def test_adversarial_trial_attains_worst_case(self):
        for n in (2, 4, 6, 9, 33):
            report = noise_experiment(n=n, r=1, epsilon=0.3, trials=2, seed=n)
            assert report.attained == attained_amplification(n)
            assert report.adversarial_ratio == pytest.approx(report.attained,
                                                             rel=1e-12)
            assert report.max_ratio <= report.attained
            assert report.passed

    def test_never_calls_the_atom_expansion(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("atom expansion on the noise path")

        monkeypatch.setattr(mds, "expand_kernel", refuse)
        D = SquaredDistanceMatrix(np.zeros((4, 4)))
        with pytest.raises(AssertionError):
            dual_expansion(D)
        assert noise_experiment(n=16, r=2, epsilon=0.1, trials=5, seed=0).passed

    def test_report_bookkeeping(self):
        report = noise_experiment(n=5, r=2, epsilon=0.01, trials=7, seed=42)
        assert report.n == 5
        assert report.trials == 7
        assert report.bound == NOISE_BOUND
        assert report.factor == pytest.approx(float(EXACT_FACTORS[5]), rel=1e-12)
        assert 0.0 < report.max_ratio <= report.factor + 1e-12
        assert report.passed

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (9, 2), (16, 3)])
    def test_observed_never_beats_exact_worst_case(self, n, seed):
        # factor is the paper's bound, above the attained worst case
        report = noise_experiment(n=n, r=2, epsilon=0.05, trials=50, seed=seed)
        assert report.max_ratio <= report.attained * (1 + 1e-12)
        assert report.max_ratio <= report.factor + 1e-12
        assert report.passed

    def test_same_seed_reproduces_bitwise(self):
        a = noise_experiment(n=6, r=3, epsilon=0.02, trials=20, seed=7)
        b = noise_experiment(n=6, r=3, epsilon=0.02, trials=20, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = noise_experiment(n=6, r=3, epsilon=0.02, trials=20, seed=7)
        b = noise_experiment(n=6, r=3, epsilon=0.02, trials=20, seed=8)
        assert a.max_ratio != b.max_ratio

    def test_ratio_independent_of_noise_level(self):
        # the perturbation is linear in the noise, and the same seed
        # redraws the same configuration and noise pattern
        small = noise_experiment(n=5, r=2, epsilon=1e-4, trials=10, seed=9)
        large = noise_experiment(n=5, r=2, epsilon=1e2, trials=10, seed=9)
        assert small.max_ratio == pytest.approx(large.max_ratio, rel=1e-9)

    def test_single_trial(self):
        report = noise_experiment(n=3, r=1, epsilon=0.5, trials=1, seed=11)
        assert report.trials == 1
        assert report.passed
