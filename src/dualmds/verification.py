"""The self-verification suite behind ``dualmds verify``.

Every closed-form statement the package relies on is checked here at a
chosen size n: the four-point golden objects, the atom-Gram spectrum,
the triangular-graph decomposition, biorthogonality, the dual atoms'
two-eigenvalue structure, the assembled dual Gram being the inverse,
agreement of the two Gram-matrix routes, embedding round trips, and the
constraint-matrix identity with its singular spectrum.

The L x L matrices are built once per run (L = n(n-1)/2 pairs), and none
is decomposed when the run passes.  With M the L x n pair-vertex
incidence matrix, the two spectrum checks first test, exactly in
integers, that H - 2I and (3n-4)I - A^T A equal M M^T; the spectra then
follow from the n x n matrix M^T M.  When a test fails, the check falls
back to a dense eigensolve of the matrix itself, so a failing report
prints its actual spectrum.  A run whose estimated peak memory exceeds
physical memory is refused before anything is allocated.
"""

from __future__ import annotations

import numpy as np

from . import _reference
from .basis import (
    basis_atom,
    basis_gram,
    dual_atom,
    dual_atom_eigenpairs,
    dual_gram_matrix,
    triangular_graph_adjacency,
    h_spectrum_predicted,
    integer_deviation,
    overlap_spectrum,
    pair_overlaps,
    require_dense_memory,
)
from .errors import DomainError
from .mds import (
    double_center,
    dual_expansion,
    embed,
    procrustes_residual,
    squared_distances,
)
from .nearness import ConstraintMatrix, constraint_matrix, singular_value_verdict
from .pairspace import PairIndex, PointConfiguration, linear_to_pair, num_pairs, \
    pair_arrays
from .report import CheckResult
from .spectral import spectrum_verdict, sym_eig, sym_eigvals

BIORTHOGONALITY_TOL = 1e-12
BIORTHOGONALITY_BLOCK_ENTRIES = 1 << 16
DUAL_SPECTRUM_TOL = 1e-10
INVERSE_TOL = 1e-9
EXPANSION_TOL = 1e-10
ROUND_TRIP_TOL = 1e-7
RANDOM_CONFIGS = 5
# Peak memory of a run in L x L float64 arrays (8 L^2 bytes each), for the
# up-front refusal.  Measured peak RSS of `dualmds verify`: 318 MB at n = 80
# and 1341 MB at n = 120, a slope of 3.12 arrays; rounded up.
VERIFY_PEAK_ARRAYS = 3.2


def _check_reference_objects(H: np.ndarray, A: ConstraintMatrix,
                             overlaps: np.ndarray) -> CheckResult:
    """Golden four-point objects, compared in exact scaled integers.

    ``H``, ``A`` and ``overlaps`` are the run's atom Gram matrix,
    constraint matrix and pair overlaps at n = REFERENCE_N.
    """
    n = _reference.REFERENCE_N
    alpha = PairIndex(1, 2, n)
    atom_dev = int(np.max(np.abs(basis_atom(alpha).entries - _reference.ATOM_12)))
    dual_dev = float(
        np.max(np.abs(16.0 * dual_atom(alpha).materialize() - _reference.DUAL_12_X16))
    )
    gram_dev = float(np.max(np.abs(H - _reference.ATOM_GRAM)))
    inverse_dev = float(
        np.max(np.abs(16.0 * dual_gram_matrix(n, overlaps=overlaps)
                      - _reference.DUAL_GRAM_X16))
    )
    dense = A.to_dense()
    row_dev = 0
    for (pos, apex), expected in _reference.CONSTRAINT_ROWS.items():
        row = A.row_of(PairIndex(pos[0], pos[1], n), apex)
        row_dev = max(row_dev, int(np.max(np.abs(dense[row - 1] - expected))))
    passed = (
        atom_dev == 0
        and dual_dev <= 1e-12
        and gram_dev <= 1e-12
        and inverse_dev <= 1e-12
        and row_dev == 0
    )
    return CheckResult(
        "reference_objects",
        passed,
        {
            "atom_deviation": atom_dev,
            "dual_atom_deviation_x16": dual_dev,
            "atom_gram_deviation": gram_dev,
            "dual_gram_deviation_x16": inverse_dev,
            "constraint_row_deviation": row_dev,
        },
    )


def _check_atom_gram_spectrum(n: int, H: np.ndarray,
                              overlaps: np.ndarray) -> CheckResult:
    """Spectrum of H, through M^T M once H - 2I = M M^T holds exactly.

    Then the eigenvalues of H are 2 plus those of M M^T, which
    :func:`~dualmds.basis.overlap_spectrum` takes from the n x n matrix
    M^T M.  Otherwise H is decomposed densely, so a failing report shows
    H's actual spectrum.
    """
    expected = sorted(h_spectrum_predicted(n), key=lambda g: -g[0])
    if integer_deviation(H, overlaps, -1, 2) == 0:
        eigenvalues = 2.0 + overlap_spectrum(n)
    else:
        eigenvalues = sym_eigvals(H)
    ok, groups = spectrum_verdict(eigenvalues, expected)
    return CheckResult("atom_gram_spectrum", ok, {"groups": groups})


def _check_triangular_decomposition(n: int, H: np.ndarray,
                                    overlaps: np.ndarray) -> CheckResult:
    deviation = integer_deviation(
        H, triangular_graph_adjacency(n, overlaps=overlaps), -1, 4)
    return CheckResult("triangular_decomposition", deviation == 0,
                       {"max_deviation": deviation})


def _check_biorthogonality(n: int) -> CheckResult:
    """<v_alpha, w_beta> = delta_alpha,beta over all L x L ordered pairs of pairs.

    At beta = (i, j) the inner product is V[i,i] + V[j,j] - 2 V[i,j] with
    V = -1/2 (a b^T + b a^T), a and b being the factors of the package's
    own ``dual_atom(alpha)``.  A block of alphas is evaluated against
    every beta at once by index arithmetic on the stacked factors, with
    the same floating-point operations per entry as the dense V, so the
    result equals the entry-by-entry double loop bit for bit.  Blocks
    hold about BIORTHOGONALITY_BLOCK_ENTRIES entries so that the check's
    memory stays below the L x L arrays the spectrum and inverse checks
    already build; the full table at once would add several more.
    """
    L = num_pairs(n)
    rows, cols = pair_arrays(n)
    step = max(1, BIORTHOGONALITY_BLOCK_ENTRIES // L)
    worst = 0.0
    for start in range(0, L, step):
        stop = min(start + step, L)
        atoms = [dual_atom(PairIndex(int(rows[k]) + 1, int(cols[k]) + 1, n))
                 for k in range(start, stop)]
        a = np.stack([v.a for v in atoms])
        b = np.stack([v.b for v in atoms])
        a_i, a_j, b_i, b_j = a[:, rows], a[:, cols], b[:, rows], b[:, cols]
        v_ii = -0.5 * (a_i * b_i + b_i * a_i)
        v_jj = -0.5 * (a_j * b_j + b_j * a_j)
        v_ij = -0.5 * (a_i * b_j + b_i * a_j)
        inner = v_ii + v_jj - 2.0 * v_ij
        inner[np.arange(stop - start), np.arange(start, stop)] -= 1.0
        worst = max(worst, float(np.max(np.abs(inner))))
    return CheckResult("biorthogonality", worst <= BIORTHOGONALITY_TOL,
                       {"max_deviation": worst, "pairs": L})


def _check_dual_atom_spectra(n: int, rng: np.random.Generator) -> CheckResult:
    L = num_pairs(n)
    sample = range(1, L + 1) if L <= 45 else rng.choice(L, size=20, replace=False) + 1
    worst_value = 0.0
    worst_align = 0.0
    ranks_ok = True
    for k in sample:
        alpha = linear_to_pair(int(k), n)
        V = dual_atom(alpha).materialize()
        vals, vecs = sym_eig(V)
        nonzero = vals[np.abs(vals) > DUAL_SPECTRUM_TOL]
        ranks_ok = ranks_ok and nonzero.size == 2
        (lam_pos, vec_pos), (lam_neg, vec_neg) = dual_atom_eigenpairs(alpha)
        worst_value = max(
            worst_value,
            abs(float(np.max(vals)) - lam_pos),
            abs(float(np.min(vals)) - lam_neg),
        )
        for lam, vec in ((lam_pos, vec_pos), (lam_neg, vec_neg)):
            worst_align = max(
                worst_align, float(np.max(np.abs(V @ vec - lam * vec)))
            )
    passed = ranks_ok and worst_value <= DUAL_SPECTRUM_TOL \
        and worst_align <= DUAL_SPECTRUM_TOL
    return CheckResult(
        "dual_atom_spectrum",
        passed,
        {
            "rank_two_everywhere": ranks_ok,
            "max_eigenvalue_deviation": worst_value,
            "max_eigenvector_residual": worst_align,
        },
    )


def _check_dual_gram_inverse(n: int, H: np.ndarray,
                             overlaps: np.ndarray) -> CheckResult:
    """max |G H - I| with G the dual Gram matrix, formed in the product's array."""
    product = dual_gram_matrix(n, overlaps=overlaps) @ H
    product[np.diag_indices_from(product)] -= 1.0
    deviation = float(np.max(np.abs(product, out=product)))
    return CheckResult("dual_gram_inverse", deviation <= INVERSE_TOL,
                       {"max_deviation": deviation})


def _random_configurations(n: int, rng: np.random.Generator):
    for _ in range(RANDOM_CONFIGS):
        r = int(rng.integers(1, min(3, n - 1) + 1))
        yield PointConfiguration(rng.standard_normal((n, r)))


def _check_expansion_equivalence(n: int, rng: np.random.Generator,
                                 backend: str | None) -> CheckResult:
    worst = 0.0
    for P in _random_configurations(n, rng):
        D = squared_distances(P)
        gap = np.max(np.abs(dual_expansion(D, backend=backend).entries
                            - double_center(D).entries))
        scale = max(1.0, float(np.max(np.abs(D.entries))))
        worst = max(worst, float(gap) / scale)
    return CheckResult("expansion_equivalence", worst <= EXPANSION_TOL,
                       {"max_relative_deviation": worst})


def _check_embedding_round_trip(n: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for P in _random_configurations(n, rng):
        D = squared_distances(P)
        recovered = embed(D).points
        residual = procrustes_residual(recovered, P)
        scale = float(np.linalg.norm(P.points))
        worst = max(worst, residual / max(scale, 1e-300))
    return CheckResult("embedding_round_trip", worst <= ROUND_TRIP_TOL,
                       {"max_relative_residual": worst})


def _check_constraint_gram_identity(n: int, gram: np.ndarray,
                                    H: np.ndarray) -> CheckResult:
    deviation = integer_deviation(H, gram, 1, 3 * n - 2)
    return CheckResult("constraint_gram_identity", deviation == 0,
                       {"max_deviation": deviation})


def _check_constraint_singular_values(n: int, gram: np.ndarray,
                                      overlaps: np.ndarray) -> CheckResult:
    ok, groups = singular_value_verdict(n, gram, overlaps)
    return CheckResult("constraint_singular_values", ok, {"groups": groups})


def run_verification(n: int, seed: int = 0,
                     backend: str | None = None) -> list[CheckResult]:
    """Run every check at size n; the golden-object check joins at n = 4.

    The run is refused up front when its estimated peak memory exceeds
    physical memory.  The L x L atom Gram matrix H, the pair overlaps
    M M^T and the constraint matrix A with its Gram A^T A are built once
    and handed to the checks that read them.  A^T A is formed only after
    the round-trip check and H is released after the identity check, so
    the two are held together only where a check reads both.
    """
    if n < 3:
        raise DomainError(f"verification needs n >= 3, got n={n}")
    require_dense_memory(n, VERIFY_PEAK_ARRAYS, "verify")
    rng = np.random.default_rng(seed)
    H = basis_gram(n).entries
    overlaps = pair_overlaps(n)
    checks: list[CheckResult] = []
    checks.append(_check_atom_gram_spectrum(n, H, overlaps))
    checks.append(_check_triangular_decomposition(n, H, overlaps))
    checks.append(_check_biorthogonality(n))
    checks.append(_check_dual_atom_spectra(n, rng))
    checks.append(_check_dual_gram_inverse(n, H, overlaps))
    checks.append(_check_expansion_equivalence(n, rng, backend))
    checks.append(_check_embedding_round_trip(n, rng))
    A = constraint_matrix(n)
    if n == _reference.REFERENCE_N:
        # listed first, but run once A exists
        checks.insert(0, _check_reference_objects(H, A, overlaps))
    gram = A.gram()
    checks.append(_check_constraint_gram_identity(n, gram, H))
    del H
    checks.append(_check_constraint_singular_values(n, gram, overlaps))
    return checks
