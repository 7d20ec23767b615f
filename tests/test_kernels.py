"""The atom-sum expansion and the closed-form amplification bound, against oracles."""

from fractions import Fraction

import numpy as np
import pytest

from dualmds import amplification_factor, centering_matrix, expand_coefficients, num_pairs
from dualmds.errors import DomainError

import oracles


class TestAgainstEnumeration:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_amplification_equals_pair_enumeration(self, n):
        fast = amplification_factor(n)
        slow = oracles.amplification_enumerated(n)
        assert fast == pytest.approx(slow, rel=1e-13)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_closed_form_is_the_exact_value_rounded(self, n):
        # one true division of exact integers rounds correctly
        assert amplification_factor(n) == float(oracles.amplification_exact(n))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_enumeration_swapped_variant_identical(self, n):
        plain = oracles.amplification_enumerated(n, swapped=False)
        swapped = oracles.amplification_enumerated(n, swapped=True)
        assert plain == pytest.approx(swapped, rel=1e-14)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, Fraction(1, 4)),
            (3, Fraction(8, 9)),
            (4, Fraction(11, 8)),
            (5, Fraction(43, 25)),
            (8, Fraction(37, 16)),
        ],
    )
    def test_exact_rational_values(self, n, expected):
        assert oracles.amplification_exact(n) == expected
        assert amplification_factor(n) == pytest.approx(float(expected), rel=1e-13)

    def test_dyadic_sizes_are_exact(self):
        # the bound is dyadic at powers of two, so no rounding occurs
        assert amplification_factor(4) == 11 / 8
        assert amplification_factor(8) == 37 / 16
        assert amplification_factor(16) == 23 / 8


def test_expansion_matches_atom_accumulation():
    rng = np.random.default_rng(99)
    for n in (3, 5, 8):
        coeffs = rng.standard_normal(num_pairs(n))
        by_kernel = expand_coefficients(coeffs, n)
        by_atoms = np.zeros((n, n))
        for c, (i, j) in zip(coeffs, oracles.lex_pairs(n)):
            by_atoms += c * oracles.dual_matrix(i, j, n)
        assert np.max(np.abs(by_kernel - by_atoms)) <= 1e-12


def test_expansion_rejects_wrong_length():
    with pytest.raises(DomainError):
        expand_coefficients(np.ones(5), 4)


def test_centering_feeds_kernels_consistently():
    # one hand value of the bound over |J| at n=2: all |J| entries are
    # 1/2, and the single pair contributes (1/2)*(1/2)
    J = centering_matrix(2).entries
    assert np.max(np.abs(np.abs(J) - 0.5)) == 0.0
    assert amplification_factor(2) == 0.25
