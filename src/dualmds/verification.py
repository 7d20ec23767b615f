"""The self-verification suite behind ``dualmds verify``.

Every closed-form statement the package relies on is checked here at a
chosen size n: the four-point golden objects, the atom-Gram spectrum,
the triangular-graph decomposition, biorthogonality, the dual atoms'
two-eigenvalue structure, the assembled dual Gram being the inverse,
agreement of the two Gram-matrix routes, embedding round trips, and the
constraint-matrix identity with its singular spectrum.

The L x L matrices are built once per run (L = n(n-1)/2 pairs), and none
is decomposed when the run passes.  With M the L x n pair-vertex
incidence matrix, ``triangular_decomposition`` proves H = 4I + A_1 =
2I + M M^T and ``constraint_gram_identity`` proves A^T A = (3n-4)I -
M M^T, each by one exact integer test; together they give the paper's
A^T A = (3n-2)I - H.  The second test reads A's rows, and forms A^T A
only when they are not exactly the triangle rows.  Each spectrum check
reads its identity's verdict: when it holds the spectrum follows from
the n x n matrix M^T M, and otherwise the matrix is decomposed densely,
so a failing report prints its actual spectrum.  Biorthogonality
follows the same pattern: once the stacked dual-atom factors equal the
centering matrix's rows exactly, the L x L table takes one value per
relation class of two pairs (equal, sharing one vertex in one of four
ways, disjoint), each evaluated once; otherwise every entry is
evaluated.  The inverse check
forms G H as 2G + (G M) M^T, O(L^2 n) instead of O(L^3).  A run whose
estimated peak memory exceeds available memory is refused before
anything is allocated.
"""

from __future__ import annotations

import numpy as np

from . import _reference
from .basis import (
    basis_atom,
    basis_gram,
    dual_atom,
    dual_atom_eigenpairs,
    dual_atom_factors,
    dual_gram_matrix,
    h_spectrum_predicted,
    incidence_matrix,
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
from .nearness import ConstraintMatrix, constraint_gram_deviation, constraint_matrix, \
    singular_value_verdict
from .pairspace import PairIndex, PointConfiguration, centering_matrix, linear_index, \
    linear_to_pair, num_pairs, pair_arrays
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
# up-front refusal.  The peak is the dual Gram product (G, the product and
# the overlaps; H is released by then): measured peak RSS 906 MB at n = 120
# and 2746 MB at n = 160, a slope of 2.18 arrays; rounded up.
VERIFY_PEAK_ARRAYS = 2.4


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


def _check_atom_gram_spectrum(n: int, H: np.ndarray, exact: bool) -> CheckResult:
    """Spectrum of H: 2 plus that of M M^T when ``exact`` (H = 2I + M M^T holds).

    :func:`~dualmds.basis.overlap_spectrum` takes it from the n x n
    matrix M^T M.  Otherwise H is decomposed densely, so a failing
    report shows H's actual spectrum.
    """
    expected = sorted(h_spectrum_predicted(n), key=lambda g: -g[0])
    eigenvalues = 2.0 + overlap_spectrum(n) if exact else sym_eigvals(H)
    ok, groups = spectrum_verdict(eigenvalues, expected)
    return CheckResult("atom_gram_spectrum", ok, {"groups": groups})


def _check_triangular_decomposition(H: np.ndarray, overlaps: np.ndarray) -> CheckResult:
    """H = 4I + A_1 = 2I + M M^T, in exact integers.

    M M^T - 2I is the triangular graph's adjacency A_1 entry by entry:
    its diagonal is 2, and two distinct pairs share at most one vertex.
    """
    deviation = integer_deviation(H, overlaps, -1, 2)
    return CheckResult("triangular_decomposition", deviation == 0,
                       {"max_deviation": deviation})


def _atom_inner(a_i, b_i, a_j, b_j):
    """<v_alpha, w_beta> = V[i,i] + V[j,j] - 2 V[i,j], with V = -1/2 (a b^T + b a^T).

    The arguments are the entries of v_alpha's factors a and b at the
    two vertices i, j of beta; these are the floating-point operations
    of the dense V, entry by entry.
    """
    v_ii = -0.5 * (a_i * b_i + b_i * a_i)
    v_jj = -0.5 * (a_j * b_j + b_j * a_j)
    v_ij = -0.5 * (a_i * b_j + b_i * a_j)
    return v_ii + v_jj - 2.0 * v_ij


# One (alpha, beta) per relation class of J(n, 2), as 0-based vertex pairs:
# alpha = beta first, then beta sharing one vertex of alpha = (p, q) as
# (p, .), (q, .), (., p) and (., q), then disjoint pairs, which need n >= 4.
RELATION_CLASSES = (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (1, 2)),
                    ((1, 2), (0, 1)), ((0, 2), (1, 2)), ((0, 1), (2, 3)))


def _biorthogonality_by_class(n: int, a: np.ndarray, b: np.ndarray) -> float:
    """max |<v_alpha, w_beta> - delta| from one entry per relation class.

    Valid once the rows of ``a`` and ``b`` are exactly the columns of J
    at each pair's two vertices: an entry then reads d = 1 - 1/n where
    a vertex of beta is the factor's own vertex and o = -1/n elsewhere,
    so it depends only on how alpha and beta meet, and the classes
    present at n hold every value of the L x L table.
    """
    reps = np.array([c for c in RELATION_CLASSES if max(c[1]) < n])
    (p, q), (i, j) = reps[:, 0].T, reps[:, 1].T
    k = linear_index(p + 1, q + 1, n) - 1
    inner = _atom_inner(a[k, i], b[k, i], a[k, j], b[k, j])
    inner[0] -= 1.0
    return float(np.max(np.abs(inner)))


def _biorthogonality_exhaustive(n: int, a: np.ndarray, b: np.ndarray) -> float:
    """max |<v_alpha, w_beta> - delta| over all L x L entries, a block of alphas at a time.

    Blocks hold about BIORTHOGONALITY_BLOCK_ENTRIES entries so that the
    check's memory stays below the L x L arrays other checks build.
    """
    L = num_pairs(n)
    rows, cols = pair_arrays(n)
    step = max(1, BIORTHOGONALITY_BLOCK_ENTRIES // L)
    worst = 0.0
    for start in range(0, L, step):
        stop = min(start + step, L)
        a_blk, b_blk = a[start:stop], b[start:stop]
        inner = _atom_inner(a_blk[:, rows], b_blk[:, rows], a_blk[:, cols], b_blk[:, cols])
        inner[np.arange(stop - start), np.arange(start, stop)] -= 1.0
        worst = max(worst, float(np.max(np.abs(inner))))
    return worst


def _check_biorthogonality(n: int) -> CheckResult:
    """<v_alpha, w_beta> = delta_alpha,beta over all L x L ordered pairs of pairs.

    The factors of all L dual atoms come from
    :func:`~dualmds.basis.dual_atom_factors`, the builder behind
    ``dual_atom``.  When they equal the rows of the independently built
    centering matrix exactly, the table takes one value per relation
    class of (alpha, beta), and each class present at n is evaluated
    once (:func:`_biorthogonality_by_class`); otherwise every entry is
    evaluated (:func:`_biorthogonality_exhaustive`), so a failing report
    shows the actual deviation.  Both use the same floating-point
    operations per entry as the dense V, so the result equals the
    entry-by-entry double loop bit for bit.
    """
    rows, cols = pair_arrays(n)
    a, b = dual_atom_factors(n, rows, cols)
    J = centering_matrix(n).entries
    if np.array_equal(a, J[rows]) and np.array_equal(b, J[cols]):
        worst = _biorthogonality_by_class(n, a, b)
    else:
        worst = _biorthogonality_exhaustive(n, a, b)
    return CheckResult("biorthogonality", worst <= BIORTHOGONALITY_TOL,
                       {"max_deviation": worst, "pairs": num_pairs(n)})


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


def _check_dual_gram_inverse(n: int, overlaps: np.ndarray) -> CheckResult:
    """max |G H - I| with G the dual Gram matrix and H = 2I + M M^T.

    With M the L x n incidence matrix, G H = 2G + (G M) M^T, formed in
    O(L^2 n) instead of the O(L^3) dense product; each entry sums n
    products instead of L, so its roundoff is smaller too.  That H is
    2I + M M^T exactly is the integer test of ``triangular_decomposition``.
    """
    G = dual_gram_matrix(n, overlaps=overlaps)
    M = incidence_matrix(n)
    product = (G @ M) @ M.T
    G *= 2.0
    product += G
    product[np.diag_indices_from(product)] -= 1.0
    deviation = float(np.max(np.abs(product, out=product)))
    return CheckResult("dual_gram_inverse", deviation <= INVERSE_TOL,
                       {"max_deviation": deviation})


def _random_configurations(n: int, rng: np.random.Generator):
    for _ in range(RANDOM_CONFIGS):
        r = int(rng.integers(1, min(3, n - 1) + 1))
        yield PointConfiguration(rng.standard_normal((n, r)))


def _check_expansion_equivalence(n: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for P in _random_configurations(n, rng):
        D = squared_distances(P)
        gap = np.max(np.abs(dual_expansion(D).entries - double_center(D).entries))
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


def _check_constraint_gram_identity(A: ConstraintMatrix) -> CheckResult:
    deviation = constraint_gram_deviation(A)
    return CheckResult("constraint_gram_identity", deviation == 0,
                       {"max_deviation": deviation})


def _check_constraint_singular_values(A: ConstraintMatrix, exact: bool) -> CheckResult:
    ok, groups = singular_value_verdict(A, exact)
    return CheckResult("constraint_singular_values", ok, {"groups": groups})


def run_verification(n: int, seed: int = 0) -> list[CheckResult]:
    """Run every check at size n; the golden-object check joins at n = 4.

    The run is refused up front when its estimated peak memory exceeds
    available memory.  The constraint matrix A, the L x L atom Gram
    matrix H and the pair overlaps M M^T are built once and handed to the
    checks that read them.  H is released once the two checks on H have
    run, before the dual Gram product; a passing run never forms A^T A.
    """
    if n < 3:
        raise DomainError(f"verification needs n >= 3, got n={n}")
    require_dense_memory(n, VERIFY_PEAK_ARRAYS, "verify")
    rng = np.random.default_rng(seed)
    A = constraint_matrix(n)
    H = basis_gram(n).entries
    overlaps = pair_overlaps(n)
    checks = ([_check_reference_objects(H, A, overlaps)]
              if n == _reference.REFERENCE_N else [])
    triangular = _check_triangular_decomposition(H, overlaps)
    checks += [_check_atom_gram_spectrum(n, H, triangular.passed), triangular]
    del H
    checks.append(_check_biorthogonality(n))
    checks.append(_check_dual_atom_spectra(n, rng))
    checks.append(_check_dual_gram_inverse(n, overlaps))
    checks.append(_check_expansion_equivalence(n, rng))
    checks.append(_check_embedding_round_trip(n, rng))
    identity = _check_constraint_gram_identity(A)
    checks.append(identity)
    checks.append(_check_constraint_singular_values(A, identity.passed))
    return checks
