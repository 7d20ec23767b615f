"""Classical scaling: distances to Gram matrix to coordinates, two ways.

The Gram matrix of a squared-distance matrix D can be produced by two
independent routes that must agree:

* :func:`double_center` computes -1/2 J D J literally, and
* :func:`dual_expansion` accumulates the rank-2 dual atoms, one per
  vertex pair, weighted by the squared distances.

:func:`measure_coefficients` inverts the expansion (it reads squared
distances back off a Gram matrix), :func:`is_euclidean` is the
positive-semidefiniteness test, and :func:`embed` recovers coordinates
by truncated eigendecomposition.  From ``CERTIFIED_MIN_N`` points on,
:func:`embed` first tries a certified low-rank route (pivoted Cholesky
of the Gram matrix with an explicit residual bound) and runs the full
eigendecomposition only when that bound cannot decide the verdict and
the rank.  Embeddings are unique only up to rotation, reflection and
translation, so :func:`procrustes_residual` measures recovery modulo
those motions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import expand_kernel
from .errors import DomainError, NonEuclideanError
from .pairspace import (
    GramMatrix,
    PointConfiguration,
    SquaredDistanceMatrix,
    centering_matrix,
    num_pairs,
    pair_arrays,
)
from .spectral import _normalize_signs, sym_eig

DEFAULT_RANK_TOL = 1e-8
# Below this many points every embedding runs the dense eigendecomposition,
# which takes about 3 ms at n = 200 and 20 ms at n = 500 on a 2-CPU host.
CERTIFIED_MIN_N = 500
# Pivots the certified route may take before it hands over to the dense route
CERTIFIED_MAX_PIVOTS = 64


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Recovered coordinates plus the spectral bookkeeping behind them.

    ``rank`` equals the number of retained (strictly positive)
    eigenvalues.  ``route`` names how they were computed: ``"dense"``, a
    full eigendecomposition of the Gram matrix, or ``"certified"``, the
    pivoted-Cholesky route of :func:`embed`.  There ``residual_norm`` is
    s, a bound on the 2-norm of the residual between the Gram matrix and
    its low-rank factor (None on the dense route).

    On the dense route ``discarded_mass`` sums the absolute values of all
    eigenvalues that were dropped, whether tiny noise or truncated
    geometry, and ``lambda_min`` is the smallest Gram eigenvalue, the one
    the Euclidean test of :func:`is_euclidean` judges against
    -tol * max(lambda_max, 0).  On the certified route both are bounds,
    not values: ``lambda_min`` is -residual_norm, a lower bound on the
    smallest eigenvalue, and ``discarded_mass`` an upper bound on that
    sum.
    """

    points: PointConfiguration
    eigenvalues: np.ndarray
    discarded_mass: float
    rank: int
    lambda_min: float
    route: str = "dense"
    residual_norm: float | None = None

    def __post_init__(self):
        if np.any(self.eigenvalues <= 0):
            raise DomainError("retained eigenvalues must be strictly positive")
        if self.rank != self.eigenvalues.shape[0]:
            raise DomainError("rank must equal the number of retained eigenvalues")
        if self.rank > self.points.n - 1:
            raise DomainError(f"rank {self.rank} impossible for {self.points.n} points")
        self.eigenvalues.setflags(write=False)


def squared_distances(P: PointConfiguration) -> SquaredDistanceMatrix:
    """All pairwise squared Euclidean distances between the rows of P."""
    pts = P.points
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.einsum("ijk,ijk->ij", diff, diff)
    return SquaredDistanceMatrix(D)


def double_center(D: SquaredDistanceMatrix) -> GramMatrix:
    """The Gram matrix -1/2 J D J of a squared-distance matrix."""
    return GramMatrix(_jdj(D))


def _jdj(D: SquaredDistanceMatrix) -> np.ndarray:
    """-1/2 J D J as a raw array, for callers that trust their own product.

    The product of a valid D is symmetric and zero-centered up to
    roundoff, so :func:`embed` and :func:`is_euclidean` hand it to the
    eigensolver without scanning it again.
    """
    J = centering_matrix(D.n).entries
    return -0.5 * (J @ D.entries @ J)


def center_by_means(E: np.ndarray) -> np.ndarray:
    """-1/2 J E J for a symmetric E, by row means and the grand mean.

    E is symmetric, so its column means equal its row means m, and
    J E J = E - m 1^T - 1 m^T + mean(m).  O(n^2), against O(n^3) for the
    product.  The result is a new array.
    """
    m = E.mean(axis=1)
    return -0.5 * (E - m[:, None] - m[None, :] + m.mean())


def expand_coefficients(coeffs, n: int) -> np.ndarray:
    """Weighted sum of all dual atoms: sum over pairs of coeffs[k] * v_k.

    ``coeffs`` holds one weight per vertex pair in canonical order.  The
    weights may be negative (they are not distances here), so the result
    is returned as a raw array; wrap it in a type when the context
    guarantees more.
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    L = num_pairs(n)
    if coeffs.shape != (L,):
        raise DomainError(f"expected {L} coefficients for n={n}, got {coeffs.shape}")
    rows, cols = pair_arrays(n)
    J = centering_matrix(n).entries
    return expand_kernel(coeffs, rows, cols, J)


def dual_expansion(D: SquaredDistanceMatrix) -> GramMatrix:
    """Gram matrix built by summing dual atoms weighted by squared distances.

    Independent of :func:`double_center` -- no centering projection is
    applied to D; the centering enters only through the atoms' factors.
    The two routes agree to roundoff on every valid input.
    """
    X = expand_coefficients(D.upper_entries(), D.n)
    return GramMatrix(X)


def measure_coefficients(X: GramMatrix) -> np.ndarray:
    """Read one coefficient per pair off a Gram matrix.

    The coefficient at pair (i, j) is X[i,i] + X[j,j] - 2 X[i,j], the
    inner product of X with the pair's measurement atom.  For a Gram
    matrix of centered points this is exactly the squared distance
    between points i and j, so this inverts :func:`expand_coefficients`
    on the zero-centered symmetric subspace.
    """
    E = X.entries
    rows, cols = pair_arrays(X.n)
    diag = np.diag(E)
    return diag[rows] + diag[cols] - 2.0 * E[rows, cols]


def _euclidean(vals: np.ndarray, tol: float) -> bool:
    """The Euclidean test on a descending Gram spectrum.

    Fails iff the smallest eigenvalue lies below -tol * max(largest, 0), the
    scale of the rank threshold, so the verdict does not change when D is
    rescaled.  When no eigenvalue is positive, any negative one fails.
    """
    return not vals[-1] < -tol * max(float(vals[0]), 0.0)


def _require_tolerance(tol: float) -> None:
    # NaN fails every comparison, so it would pass the test and count no rank
    if not 0.0 <= tol < float("inf"):
        raise DomainError(f"tolerance must be finite and nonnegative, got {tol}")


def is_euclidean(D: SquaredDistanceMatrix, tol: float = DEFAULT_RANK_TOL
                 ) -> tuple[bool, float]:
    """Whether D is realizable by points in some Euclidean space.

    True iff the smallest eigenvalue of the Gram matrix is no smaller
    than -tol * max(largest eigenvalue, 0).  Returns the verdict together
    with that smallest eigenvalue.  A tolerance that is not finite or is
    negative raises :class:`~dualmds.errors.DomainError`.
    """
    _require_tolerance(tol)
    vals, _ = sym_eig(_jdj(D), trusted=True)
    return _euclidean(vals, tol), float(vals[-1])


def embed(D: SquaredDistanceMatrix, r: int | None = None,
          tol: float = DEFAULT_RANK_TOL) -> EmbeddingResult:
    """Recover coordinates from squared distances by spectral truncation.

    Eigenvalues above tol * (largest eigenvalue) count toward the
    detected rank; coordinates are eigenvectors scaled by square roots
    of their eigenvalues.  A requested dimension ``r`` below the
    detected rank truncates; above it, the coordinates are zero-padded
    with a warning.  Distances that no point set can realize (the test
    of :func:`is_euclidean`) raise
    :class:`~dualmds.errors.NonEuclideanError` carrying the offending
    eigenvalue; that verdict on the input comes before the check that
    ``r`` lies in [0, n - 1].  A tolerance that is not finite or is
    negative raises :class:`~dualmds.errors.DomainError` before any of it.

    From ``CERTIFIED_MIN_N`` points on, the certified route of
    :func:`_certified_spectrum` runs first.  Its result is used only when
    its residual bound proves the Euclidean verdict and puts every
    eigenvalue on a known side of the rank threshold; otherwise the
    dense eigendecomposition decides, as it always does below that size.
    So every non-Euclidean verdict comes from the dense route.
    """
    _require_tolerance(tol)
    n = D.n
    certified = _certified_spectrum(D, tol) if n >= CERTIFIED_MIN_N else None
    if certified is None:
        vals, vecs = sym_eig(_jdj(D), trusted=True)
        lam_min = float(vals[-1])
        if not _euclidean(vals, tol):
            raise NonEuclideanError(
                f"distances are not Euclidean: smallest Gram eigenvalue {lam_min:.6e}",
                lambda_min=lam_min,
            )
        detected = int(np.count_nonzero(vals > tol * max(float(vals[0]), 0.0)))
        s = None
    else:
        vals, vecs, s, detected = certified
        lam_min = 0.0 - s  # a lower bound; 0.0 - 0.0 is 0.0, never -0.0
    if r is not None and not 0 <= r <= n - 1:
        raise DomainError(f"target dimension r={r} out of range [0, {n - 1}] for n={n}")
    keep = detected if r is None else min(r, detected)
    retained = vals[:keep].copy()
    coords = vecs[:, :keep] * np.sqrt(retained)
    if r is not None and r > detected:
        warnings.warn(
            f"requested dimension {r} exceeds detected rank {detected}; "
            "padding with zero coordinates",
            stacklevel=2,
        )
        coords = np.hstack([coords, np.zeros((n, r - detected))])
    if s is None:
        discarded = float(np.sum(np.abs(vals[keep:])))
    else:
        # |lambda_i| <= mu_i + s up to the factor's width k, and <= s beyond
        discarded = float(np.sum(vals[keep:] + s)) + (n - vals.shape[0]) * s
    return EmbeddingResult(
        points=PointConfiguration(coords),
        eigenvalues=retained,
        discarded_mass=discarded,
        rank=keep,
        lambda_min=lam_min,
        route="dense" if s is None else "certified",
        residual_norm=s,
    )


def _certified_spectrum(D: SquaredDistanceMatrix, tol: float):
    """The Gram spectrum of D from a pivoted Cholesky factor, or None.

    G = -1/2 J D J comes from row means (:func:`center_by_means`).
    Greedy diagonal pivoting builds G ~ L L^T with L of width k.  It
    stops once the trace of the residual S = G - L L^T, read off its
    diagonal, is at most tol/2 times the first (largest) pivot, which is
    at most lambda_max: a positive semidefinite S has Frobenius norm at
    most its trace.  S is then formed explicitly, and s is its Frobenius
    norm, which bounds |S|_2, plus (k + log2 n + 4) u (|D|_F + |L|_F^2)
    for the rounding errors made in computing G and S (u the unit
    roundoff; Higham 2002, ch. 3).  The nonzero eigenvalues mu of L L^T
    are the squared singular values of L, its eigenvectors the left
    singular vectors, and by Weyl's inequality |lambda_i - mu_i| <= s
    for i <= k and |lambda_i| <= s beyond.

    Returns ``(mu, eigenvectors, s, detected)``, the eigenvectors
    sign-fixed as :func:`~dualmds.spectral.sym_eig` fixes them, when no
    eigenvalue can lie within s of the rank threshold tol * lambda_max.
    The trailing ones, |lambda_i| <= s, must then lie below it, so that
    s <= tol * max(mu_1 - s, 0) <= tol * lambda_max, as lambda_max >=
    mu_1 - s; then lambda_min >= -s passes the Euclidean test of
    :func:`is_euclidean`, lambda_min >= -tol * max(lambda_max, 0).
    Returns None when that fails, or when ``CERTIFIED_MAX_PIVOTS`` pivots
    leave the residual trace too large.
    """
    G = center_by_means(D.entries)
    d = np.diag(G).copy()
    L = np.zeros((D.n, CERTIFIED_MAX_PIVOTS))
    first = float(d.max())
    stop = 0.5 * tol * first
    k = 0
    while first > 0.0 and float(d.sum()) > stop:
        if k == CERTIFIED_MAX_PIVOTS:
            return None
        # d sums above stop >= 0, so its largest entry is positive
        p = int(np.argmax(d))
        col = G[:, p] - L[:, :k] @ L[p, :k]
        col /= math.sqrt(d[p])
        L[:, k] = col
        d -= col * col
        k += 1
    L = L[:, :k]
    G -= L @ L.T
    U, sing, _ = np.linalg.svd(L, full_matrices=False)
    mu = sing * sing
    # rounding of the row means (pairwise sums), the three centering
    # additions, the k-term products of L L^T and the subtraction
    unit = (k + math.ceil(math.log2(D.n)) + 4) * np.finfo(float).eps / 2
    s = (math.sqrt(float(np.vdot(G, G)))
         + unit * (math.sqrt(float(np.vdot(D.entries, D.entries))) + float(mu.sum())))
    mu_1 = float(mu[0]) if k else 0.0
    # the rank threshold tol * max(lambda_max, 0) lies in [low, high]
    low = tol * max(mu_1 - s, 0.0)
    high = tol * (mu_1 + s)
    above = mu - s > high
    # k < n, so |lambda_n| <= s <= low proves the Euclidean test as well
    if not (s <= low and np.all(above | (mu + s <= low))):
        return None
    _normalize_signs(U)
    return mu, U, s, int(np.count_nonzero(above))


def _centered(P: PointConfiguration) -> np.ndarray:
    pts = P.points
    return pts - pts.mean(axis=0)


def procrustes_residual(P: PointConfiguration, Q: PointConfiguration) -> float:
    """Frobenius distance between two point sets, minimized over rigid motions.

    Both configurations are centered; the narrower one is padded with
    zero columns.  Rotations and reflections are both allowed: with
    U S V^T the SVD of A^T B, the residual is |A U V^T - B|_F, formed
    directly so that it resolves differences far below sqrt(eps) of the
    configurations' size (Schoenemann 1966).
    """
    if P.n != Q.n:
        raise DomainError(f"point counts differ: {P.n} vs {Q.n}")
    A = _centered(P)
    B = _centered(Q)
    width = max(A.shape[1], B.shape[1])
    if A.shape[1] < width:
        A = np.hstack([A, np.zeros((A.shape[0], width - A.shape[1]))])
    if B.shape[1] < width:
        B = np.hstack([B, np.zeros((B.shape[0], width - B.shape[1]))])
    U, _, Vt = np.linalg.svd(A.T @ B)
    return float(np.linalg.norm(A @ (U @ Vt) - B))
