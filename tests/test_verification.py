"""The self-verification suite as a library call."""

import pytest

from dualmds import num_pairs, verification
from dualmds.basis import BasisGram, DualAtom, dual_atom
from dualmds.cli import main
from dualmds.nearness import ConstraintMatrix
from dualmds.errors import DomainError
from dualmds.report import CheckResult
from dualmds.verification import run_verification

import oracles

EXPECTED_CHECKS = {
    "atom_gram_spectrum",
    "biorthogonality",
    "constraint_gram_identity",
    "constraint_singular_values",
    "dual_atom_spectrum",
    "dual_gram_inverse",
    "embedding_round_trip",
    "expansion_equivalence",
    "triangular_decomposition",
}


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_every_check_passes(n):
    checks = run_verification(n, seed=0)
    assert all(isinstance(c, CheckResult) for c in checks)
    failed = [c.name for c in checks if not c.passed]
    assert failed == []
    assert EXPECTED_CHECKS <= {c.name for c in checks}


def test_reference_comparison_only_at_four_points():
    names_at_4 = {c.name for c in run_verification(4, seed=0)}
    names_at_5 = {c.name for c in run_verification(5, seed=0)}
    assert "reference_objects" in names_at_4
    assert "reference_objects" not in names_at_5


def test_deterministic_given_seed():
    a = run_verification(5, seed=3)
    b = run_verification(5, seed=3)
    assert [(c.name, c.passed) for c in a] == [(c.name, c.passed) for c in b]


def test_rejects_too_few_points():
    with pytest.raises(DomainError):
        run_verification(2)


def _scaled_dual_atom(factor, only=None):
    """A dual_atom replacement returning v_alpha scaled by ``factor``."""
    def scaled(alpha):
        v = dual_atom(alpha)
        if only is not None and (alpha.i, alpha.j) != only:
            return v
        return DualAtom(alpha, v.a * factor, v.b)
    return scaled


class TestBiorthogonality:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_double_loop_oracle(self, n):
        result = verification._check_biorthogonality(n)
        assert result.payload["max_deviation"] == oracles.biorthogonality_deviation(n)
        assert result.payload["pairs"] == num_pairs(n)
        assert result.passed is True

    @pytest.mark.parametrize("n", [7, 12])
    def test_ragged_blocks_match_oracle(self, n, monkeypatch):
        # four alphas per block; L = 21 and 66 leave a partial last block
        L = num_pairs(n)
        assert L % 4 != 0
        monkeypatch.setattr(verification, "BIORTHOGONALITY_BLOCK_ENTRIES", 4 * L)
        result = verification._check_biorthogonality(n)
        assert result.payload["max_deviation"] == oracles.biorthogonality_deviation(n)

    def test_scaled_dual_atoms_fail(self, monkeypatch):
        monkeypatch.setattr(verification, "dual_atom", _scaled_dual_atom(1 + 1e-9))
        result = verification._check_biorthogonality(6)
        assert result.passed is False
        assert result.payload["max_deviation"] == pytest.approx(1e-9, rel=1e-3)

    def test_scaled_last_atom_in_partial_block_fails(self, monkeypatch):
        n = 7
        monkeypatch.setattr(verification, "BIORTHOGONALITY_BLOCK_ENTRIES",
                            4 * num_pairs(n))
        monkeypatch.setattr(verification, "dual_atom",
                            _scaled_dual_atom(1 + 1e-9, only=(n - 1, n)))
        result = verification._check_biorthogonality(n)
        assert result.passed is False
        assert result.payload["max_deviation"] == pytest.approx(1e-9, rel=1e-3)


class TestBuildsOncePerRun:
    """Each L x L object is built once per run, whoever asks for it.

    Constructions are counted on the classes, so a build through any
    module's binding of ``basis_gram`` or ``constraint_matrix`` counts.
    """

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"H": 0, "A": 0, "AtA": 0}

        def counting(owner, attr, key):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        counting(BasisGram, "__post_init__", "H")
        counting(ConstraintMatrix, "__init__", "A")
        counting(ConstraintMatrix, "gram", "AtA")
        return counts

    @pytest.mark.parametrize("n", [4, 12])
    def test_verify(self, builds, n):
        checks = run_verification(n)
        assert all(c.passed for c in checks)
        assert builds == {"H": 1, "A": 1, "AtA": 1}

    def test_nearness(self, builds, capsys):
        assert main(["nearness", "--n", "12"]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert builds == {"H": 1, "A": 1, "AtA": 1}
