"""The self-verification suite as a library call."""

import sys

import numpy as np
import pytest

from dualmds import basis, cli, nearness, num_pairs, verification
from dualmds.basis import (
    BasisGram,
    basis_gram,
    dual_gram_matrix,
    h_spectrum_predicted,
    integer_deviation,
    pair_overlaps,
    require_dense_memory,
    require_memory,
)
from dualmds.cli import main
from dualmds.nearness import (
    NEARNESS_ROW_BYTES,
    TRIPLET_EXPORT_ROW_BYTES,
    ConstraintMatrix,
    constraint_gram_deviation,
    constraint_matrix,
    num_constraints,
    predicted_singular_values,
    singular_value_verdict,
)
from dualmds.errors import DomainError, ResourceLimitError
from dualmds.report import CheckResult
from dualmds.spectral import spectrum_verdict, sym_eigvals
from dualmds.pairspace import pair_arrays
from dualmds.verification import INVERSE_TOL, VERIFY_PEAK_ARRAYS, run_verification

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


def _scaled_factors(factor, only=None):
    """A dual_atom_factors replacement whose a factors are scaled by ``factor``.

    With ``only`` = (i, j), 1-based, just that pair's atom is scaled.
    """
    def scaled(n, rows, cols):
        a, b = basis.dual_atom_factors(n, rows, cols)
        hit = np.ones(len(rows), dtype=bool) if only is None else \
            (rows == only[0] - 1) & (cols == only[1] - 1)
        a[hit] *= factor
        return a, b
    return scaled


def _all_factors(n):
    return basis.dual_atom_factors(n, *pair_arrays(n))


class TestBiorthogonality:
    @pytest.fixture
    def exhaustive_calls(self, monkeypatch):
        """The sizes at which the check entered its exhaustive loop."""
        calls = []
        original = verification._biorthogonality_exhaustive

        def spy(n, a, b):
            calls.append(n)
            return original(n, a, b)

        monkeypatch.setattr(verification, "_biorthogonality_exhaustive", spy)
        return calls

    @pytest.mark.parametrize("n", range(3, 21))
    def test_matches_double_loop_oracle(self, n, exhaustive_calls):
        result = verification._check_biorthogonality(n)
        assert result.payload["max_deviation"] == oracles.biorthogonality_deviation(n)
        assert result.payload["pairs"] == num_pairs(n)
        assert result.passed is True
        assert exhaustive_calls == []

    @pytest.mark.parametrize("n", range(3, 13))
    def test_exhaustive_loop_matches_oracle(self, n):
        assert verification._biorthogonality_exhaustive(n, *_all_factors(n)) \
            == oracles.biorthogonality_deviation(n)

    @pytest.mark.parametrize("n", [7, 12])
    def test_ragged_blocks_match_oracle(self, n, monkeypatch):
        # four alphas per block; L = 21 and 66 leave a partial last block
        L = num_pairs(n)
        assert L % 4 != 0
        monkeypatch.setattr(verification, "BIORTHOGONALITY_BLOCK_ENTRIES", 4 * L)
        deviation = verification._biorthogonality_exhaustive(n, *_all_factors(n))
        assert deviation == oracles.biorthogonality_deviation(n)

    def test_scaled_dual_atoms_fail(self, monkeypatch, exhaustive_calls):
        monkeypatch.setattr(verification, "dual_atom_factors", _scaled_factors(1 + 1e-9))
        result = verification._check_biorthogonality(6)
        assert result.passed is False
        assert result.payload["max_deviation"] == pytest.approx(1e-9, rel=1e-3)
        assert exhaustive_calls == [6]

    def test_scaled_last_atom_in_partial_block_fails(self, monkeypatch, exhaustive_calls):
        n = 7
        monkeypatch.setattr(verification, "BIORTHOGONALITY_BLOCK_ENTRIES",
                            4 * num_pairs(n))
        monkeypatch.setattr(verification, "dual_atom_factors",
                            _scaled_factors(1 + 1e-9, only=(n - 1, n)))
        result = verification._check_biorthogonality(n)
        assert result.passed is False
        assert result.payload["max_deviation"] == pytest.approx(1e-9, rel=1e-3)
        assert exhaustive_calls == [n]


class TestDualGramInverse:
    """G H through the incidence matrix against the dense product it replaces."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_structured_and_dense_within_tolerance(self, n):
        result = verification._check_dual_gram_inverse(n, pair_overlaps(n))
        dense = dual_gram_matrix(n) @ basis_gram(n).entries - np.eye(num_pairs(n))
        assert result.passed is True
        assert result.payload["max_deviation"] <= INVERSE_TOL
        assert float(np.max(np.abs(dense))) <= INVERSE_TOL

    def test_scaled_dual_gram_fails(self, monkeypatch):
        def scaled(size, overlaps):
            return (1 + 1e-8) * dual_gram_matrix(size, overlaps)

        monkeypatch.setattr(verification, "dual_gram_matrix", scaled)
        result = verification._check_dual_gram_inverse(9, pair_overlaps(9))
        assert result.passed is False
        assert result.payload["max_deviation"] == pytest.approx(1e-8, rel=1e-3)


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
        assert builds == {"H": 1, "A": 1, "AtA": 0}

    def test_nearness(self, builds, capsys):
        assert main(["nearness", "--n", "12"]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert builds == {"H": 0, "A": 1, "AtA": 0}


def _dense_h_verdict(n, H):
    expected = sorted(h_spectrum_predicted(n), key=lambda g: -g[0])
    return spectrum_verdict(sym_eigvals(H), expected)


def _dense_singular_verdict(n, gram):
    singular = np.sqrt(np.clip(sym_eigvals(gram.astype(float)), 0.0, None))
    return spectrum_verdict(singular, predicted_singular_values(n))


def _bumped(matrix, p=0, q=5):
    """A writable copy with one off-diagonal entry (and its mirror) raised by 1."""
    out = np.array(matrix)
    out[p, q] += 1
    out[q, p] += 1
    return out


def _triangular_holds(H, n):
    return verification._check_triangular_decomposition(H, pair_overlaps(n)).passed


def _corrupted(A, t=7):
    """A with triple t's edge jk replaced by its edge ik.

    Two slots of the triple hold one column, so the triple fails the
    structure test, and the diagonal of A^T A moves by 3 at the lost
    column.
    """
    edges = A.edges.copy()
    edges[t, 2] = edges[t, 1]
    A.edges = edges
    return A


def _dense_constraint_deviation(A):
    return integer_deviation(A.gram(), pair_overlaps(A.n), 1, 3 * A.n - 4)


class TestIncidenceRoute:
    """The spectra through M^T M against the dense L x L eigensolve they replace.

    Each spectrum check is handed the verdict of its identity check.
    """

    @pytest.mark.parametrize("n", range(3, 41))
    def test_atom_gram_spectrum_equals_dense(self, n):
        H = basis_gram(n).entries
        assert _triangular_holds(H, n)
        result = verification._check_atom_gram_spectrum(n, H, True)
        assert result.passed is True
        assert repr((result.passed, result.payload["groups"])) \
            == repr(_dense_h_verdict(n, H))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_singular_values_equal_dense(self, n):
        A = constraint_matrix(n)
        assert constraint_gram_deviation(A) == 0
        structured = singular_value_verdict(A, True)
        assert structured[0] is True
        assert repr(structured) == repr(_dense_singular_verdict(n, A.gram()))

    def test_bumped_atom_gram_fails_with_its_dense_spectrum(self):
        n = 8
        H = _bumped(basis_gram(n).entries)
        assert not _triangular_holds(H, n)
        result = verification._check_atom_gram_spectrum(n, H, False)
        assert result.passed is False
        dense = _dense_h_verdict(n, H)
        assert dense[0] is False
        assert result.payload["groups"] == dense[1]
        assert result.payload["groups"] != _dense_h_verdict(n, basis_gram(n).entries)[1]

    def test_bumped_constraint_gram_fails_with_its_dense_spectrum(self):
        A = _corrupted(constraint_matrix(8))
        assert constraint_gram_deviation(A) == 3
        ok, groups = singular_value_verdict(A, False)
        assert ok is False
        assert (ok, groups) == _dense_singular_verdict(A.n, A.gram())

    def test_bumped_atom_gram_fails_the_cli_run(self, monkeypatch, capsys):
        n = 8
        bumped = BasisGram(n=n, entries=_bumped(basis_gram(n).entries))
        monkeypatch.setattr(verification, "basis_gram", lambda n: bumped)
        assert main(["verify", "--n", str(n)]) == 1
        out = capsys.readouterr().out
        line = next(x for x in out.splitlines() if "atom_gram_spectrum" in x)
        assert line.lstrip().startswith("[FAIL]")
        groups = _dense_h_verdict(n, bumped.entries)[1]
        assert line.endswith(f"groups={[list(g) for g in groups]}")

    def test_passing_run_makes_no_pair_sized_eigensolve(self, monkeypatch):
        n = 12

        def guard(original):
            def guarded(M, *args, **kwargs):
                if np.shape(M)[0] > n:
                    raise AssertionError(f"{np.shape(M)} eigensolve at n={n}")
                return original(M, *args, **kwargs)
            return guarded

        monkeypatch.setattr(np.linalg, "eigvalsh", guard(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", guard(np.linalg.eigh))
        with pytest.raises(AssertionError):
            sym_eigvals(basis_gram(n).entries)
        checks = run_verification(n)
        assert all(c.passed for c in checks)


def _corrupt_every_constraint_matrix(monkeypatch):
    """Make every A built from here on corrupt, which bumps its A^T A."""
    original = ConstraintMatrix.__init__

    def corrupt(self, n):
        original(self, n)
        _corrupted(self)

    monkeypatch.setattr(ConstraintMatrix, "__init__", corrupt)


def _failed(checks):
    return sorted(c.name for c in checks if not c.passed)


class TestEachIdentityTestedOnce:
    """Each L x L identity is one integer test, run by the check that reports it.

    A broken matrix fails the checks of its own identity and no other.
    """

    @pytest.fixture
    def deviation_calls(self, monkeypatch):
        """The ``integer_deviation`` calls, through any module's binding."""
        calls = []
        original = basis.integer_deviation

        def spy(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dualmds" \
                    and getattr(module, "integer_deviation", None) is original:
                monkeypatch.setattr(module, "integer_deviation", spy)
        return calls

    @pytest.mark.parametrize("n", [4, 12])
    def test_verify_runs_one_dense_integer_test(self, deviation_calls, n):
        # the constraint identity is proved from A's rows, with no L x L array
        assert all(c.passed for c in run_verification(n))
        assert len(deviation_calls) == 1

    def test_nearness_runs_no_dense_integer_test(self, deviation_calls, capsys):
        assert main(["nearness", "--n", "12"]) == 0
        assert len(deviation_calls) == 0

    def test_passing_nearness_builds_no_pair_sized_array(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pair-sized array on the passing route")

        names = ("integer_deviation", "pair_overlaps", "incidence_matrix")
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dualmds":
                for attr in names:
                    if getattr(module, attr, None) is getattr(basis, attr):
                        monkeypatch.setattr(module, attr, forbidden)
        monkeypatch.setattr(ConstraintMatrix, "gram", forbidden)
        assert main(["nearness", "--n", "12"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_bumped_constraint_gram_fails_only_the_constraint_checks(self, monkeypatch):
        _corrupt_every_constraint_matrix(monkeypatch)
        assert _failed(run_verification(8)) == ["constraint_gram_identity",
                                                "constraint_singular_values"]

    def test_bumped_atom_gram_fails_only_the_atom_checks(self, monkeypatch):
        n = 8
        bumped = BasisGram(n=n, entries=_bumped(basis_gram(n).entries))
        monkeypatch.setattr(verification, "basis_gram", lambda n: bumped)
        assert _failed(run_verification(n)) == ["atom_gram_spectrum",
                                                "triangular_decomposition"]

    def test_bumped_constraint_gram_fails_the_nearness_run(self, monkeypatch, capsys):
        n = 8
        A = _corrupted(constraint_matrix(n))
        deviation = _dense_constraint_deviation(A)
        groups = _dense_singular_verdict(n, A.gram())[1]
        _corrupt_every_constraint_matrix(monkeypatch)
        assert main(["nearness", "--n", str(n)]) == 1
        lines = [x.strip() for x in capsys.readouterr().out.splitlines()]
        assert deviation == 3
        assert f"[FAIL] gram_identity: max_deviation={deviation}" in lines
        assert f"[FAIL] singular_values: groups={[list(g) for g in groups]}" in lines
        assert "overall: FAIL" in lines


class TestMemoryRefusal:
    """Runs whose estimated peak exceeds available memory are refused up front."""

    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        monkeypatch.setattr(basis, "available_memory", lambda: 1 << 16)

    @staticmethod
    def _forbid(monkeypatch, module, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the memory estimate")
        for name in names:
            monkeypatch.setattr(module, name, forbidden)

    def test_verify_refused_before_allocating(self, tiny_memory, monkeypatch):
        self._forbid(monkeypatch, verification, "basis_gram", "pair_overlaps",
                     "constraint_matrix")
        with pytest.raises(ResourceLimitError, match="available memory"):
            run_verification(40)

    def test_verify_cli_exits_2(self, tiny_memory, capsys):
        assert main(["verify", "--n", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "available memory" in captured.err

    def test_nearness_cli_exits_2_before_allocating(self, tiny_memory, monkeypatch,
                                                    capsys):
        self._forbid(monkeypatch, cli, "constraint_matrix", "basis_gram")
        assert main(["nearness", "--n", "40"]) == 2
        assert "available memory" in capsys.readouterr().err

    def test_estimate_at_the_boundary(self, monkeypatch):
        n = 10
        need = VERIFY_PEAK_ARRAYS * num_pairs(n) ** 2 * 8
        monkeypatch.setattr(basis, "available_memory", lambda: need)
        require_dense_memory(n, VERIFY_PEAK_ARRAYS, "verify")
        monkeypatch.setattr(basis, "available_memory", lambda: need - 1)
        with pytest.raises(ResourceLimitError):
            require_dense_memory(n, VERIFY_PEAK_ARRAYS, "verify")

    def test_estimate_alone_sizes_verify_on_an_8_gb_host(self, monkeypatch):
        # n = 201 (20100 pairs, past the former pair cap) fits in 8.2 GB by
        # the estimate and n = 210 does not; neither is allocated here
        monkeypatch.setattr(basis, "available_memory", lambda: 8_200_000_000)
        with pytest.raises(ResourceLimitError):
            require_dense_memory(210, VERIFY_PEAK_ARRAYS, "verify")
        require_dense_memory(201, VERIFY_PEAK_ARRAYS, "verify")

    def test_nearness_is_sized_by_rows(self, monkeypatch):
        # at n = 300 (44850 pairs), nearness fits in
        # 8.2 GB with or without the triplet export; the estimate is linear
        # in the constraint rows, so n = 1200 does not
        monkeypatch.setattr(basis, "available_memory", lambda: 8_200_000_000)
        for row_bytes in (NEARNESS_ROW_BYTES, TRIPLET_EXPORT_ROW_BYTES):
            require_memory(300, row_bytes * num_constraints(300), "nearness")
            with pytest.raises(ResourceLimitError):
                require_memory(1200, row_bytes * num_constraints(1200), "nearness")

    @pytest.mark.parametrize("argv, row_bytes", [
        ([], NEARNESS_ROW_BYTES),
        (["--format", "triplets", "--out", "t.txt"], TRIPLET_EXPORT_ROW_BYTES),
    ])
    def test_nearness_estimate_at_the_boundary(self, monkeypatch, tmp_path, capsys,
                                               argv, row_bytes):
        monkeypatch.chdir(tmp_path)
        need = row_bytes * num_constraints(12)
        monkeypatch.setattr(basis, "available_memory", lambda: need)
        assert main(["nearness", "--n", "12", *argv]) == 0
        monkeypatch.setattr(basis, "available_memory", lambda: need - 1)
        assert main(["nearness", "--n", "12", *argv]) == 2
        assert "available memory" in capsys.readouterr().err

    def test_failing_structure_beyond_memory_exits_2(self, monkeypatch, capsys):
        # the dense route a corrupt A falls back to is refused up front
        n = 40
        _corrupt_every_constraint_matrix(monkeypatch)
        monkeypatch.setattr(basis, "available_memory",
                            lambda: NEARNESS_ROW_BYTES * num_constraints(n))
        assert main(["nearness", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dense constraint-Gram route" in captured.err

    def test_unknown_memory_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(basis, "available_memory", lambda: None)
        require_dense_memory(200, VERIFY_PEAK_ARRAYS, "verify")

    def test_available_memory_is_read(self):
        have = basis.available_memory()
        assert have is None or have > 0

    def test_available_memory_parses_meminfo(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(basis, "MEMINFO", str(meminfo))
        meminfo.write_text("MemTotal:       8000000 kB\n"
                           "MemFree:         500000 kB\n"
                           "MemAvailable:   7411440 kB\n")
        assert basis.available_memory() == 7411440 * 1024

    @pytest.mark.parametrize("meminfo", ["MemTotal:       8000000 kB\n", None])
    def test_available_memory_falls_back_to_physical(self, tmp_path, monkeypatch,
                                                     meminfo):
        # a kernel without MemAvailable, or no meminfo file at all
        path = tmp_path / "meminfo"
        monkeypatch.setattr(basis, "MEMINFO", str(path))
        if meminfo is not None:
            path.write_text(meminfo)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(basis.os, "sysconf", pages.__getitem__)
        assert basis.available_memory() == 4096 * 1000

    def test_available_memory_unknown_is_none(self, tmp_path, monkeypatch):
        def unsupported(name):
            raise ValueError(name)
        monkeypatch.setattr(basis, "MEMINFO", str(tmp_path / "missing"))
        monkeypatch.setattr(basis.os, "sysconf", unsupported)
        assert basis.available_memory() is None
