"""Classical scaling: distances to Gram matrix to coordinates, two ways.

The Gram matrix of a squared-distance matrix D can be produced by two
independent routes that must agree:

* :func:`double_center` computes -1/2 J D J literally, and
* :func:`dual_expansion` accumulates the rank-2 dual atoms, one per
  vertex pair, weighted by the squared distances.

:func:`measure_coefficients` inverts the expansion (it reads squared
distances back off a Gram matrix), :func:`is_euclidean` is the
positive-semidefiniteness test, and :func:`embed` recovers coordinates
by truncated eigendecomposition.  Embeddings are unique only up to
rotation, reflection and translation, so :func:`procrustes_residual`
measures recovery modulo those motions.
"""

from __future__ import annotations

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
from .spectral import sym_eig

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Recovered coordinates plus the spectral bookkeeping behind them.

    ``rank`` equals the number of retained (strictly positive)
    eigenvalues; ``discarded_mass`` sums the absolute values of all
    eigenvalues that were dropped, whether tiny noise or truncated
    geometry.  ``lambda_min`` is the smallest Gram eigenvalue, the one
    the Euclidean test of :func:`is_euclidean` judges.
    """

    points: PointConfiguration
    eigenvalues: np.ndarray
    discarded_mass: float
    rank: int
    lambda_min: float

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
    J = centering_matrix(D.n).entries
    return GramMatrix(-0.5 * (J @ D.entries @ J))


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

    Fails iff the smallest eigenvalue lies below -tol * max(1, largest).
    """
    return not vals[-1] < -tol * max(1.0, float(vals[0]))


def _require_tolerance(tol: float) -> None:
    # NaN fails every comparison, so it would pass the test and count no rank
    if not 0.0 <= tol < float("inf"):
        raise DomainError(f"tolerance must be finite and nonnegative, got {tol}")


def is_euclidean(D: SquaredDistanceMatrix, tol: float = DEFAULT_RANK_TOL
                 ) -> tuple[bool, float]:
    """Whether D is realizable by points in some Euclidean space.

    True iff the smallest eigenvalue of the Gram matrix is no smaller
    than -tol * max(1, largest eigenvalue).  Returns the verdict together
    with that smallest eigenvalue.  A tolerance that is not finite or is
    negative raises :class:`~dualmds.errors.DomainError`.
    """
    _require_tolerance(tol)
    vals, _ = sym_eig(double_center(D).entries)
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
    """
    _require_tolerance(tol)
    n = D.n
    vals, vecs = sym_eig(double_center(D).entries)
    lam_max = float(vals[0])
    lam_min = float(vals[-1])
    if not _euclidean(vals, tol):
        raise NonEuclideanError(
            f"distances are not Euclidean: smallest Gram eigenvalue {lam_min:.6e}",
            lambda_min=lam_min,
        )
    if r is not None and not 0 <= r <= n - 1:
        raise DomainError(f"target dimension r={r} out of range [0, {n - 1}] for n={n}")
    detected = int(np.count_nonzero(vals > tol * max(lam_max, 0.0)))
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
    discarded = float(np.sum(np.abs(vals[keep:])))
    return EmbeddingResult(
        points=PointConfiguration(coords),
        eigenvalues=retained,
        discarded_mass=discarded,
        rank=keep,
        lambda_min=lam_min,
    )


def _centered(P: PointConfiguration) -> np.ndarray:
    pts = P.points
    return pts - pts.mean(axis=0)


def procrustes_residual(P: PointConfiguration, Q: PointConfiguration) -> float:
    """Frobenius distance between two point sets, minimized over rigid motions.

    Both configurations are centered; the narrower one is padded with
    zero columns.  Rotations and reflections are both allowed, so the
    residual is sqrt(|P|^2 + |Q|^2 - 2 * nuclear norm of P^T Q).
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
    sing = np.linalg.svd(A.T @ B, compute_uv=False)
    gap = float(np.sum(A * A) + np.sum(B * B) - 2.0 * float(np.sum(sing)))
    return float(np.sqrt(max(gap, 0.0)))
