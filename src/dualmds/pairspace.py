"""Canonical indexing of vertex pairs and the core matrix value types.

Every object in this package is indexed by the set of unordered vertex
pairs {(i, j) : 1 <= i < j <= n}, enumerated lexicographically so that
(1,2) comes first and (n-1,n) last.  Indices are 1-based in all public
surfaces; 0-based arrays are an internal detail that never leaks.

All value types validate their invariants on construction and freeze
their storage.  Every symmetric matrix in the package, typed or handed
to an eigensolver, is checked by :func:`validate_symmetric` against one
tolerance, ``REL_TOL`` times its largest |entry|, so no verdict depends
on the units of the input.  A violation raises
:class:`~dualmds.errors.DomainError` rather than being silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# How far a symmetric matrix may break symmetry, hollowness, zero row sums
# or nonnegativity, as a fraction of its largest |entry|.  For -1/2 J D J of
# 1000 seeded points in the plane the roundoff measured 5e-15 (symmetry)
# and 2.3e-13 (row sums) of max |G|, at unit and at 1e5 coordinates.
REL_TOL = 1e-9


def num_pairs(n: int) -> int:
    """Number of unordered pairs on n vertices, n*(n-1)/2."""
    return n * (n - 1) // 2


@dataclass(frozen=True)
class PairIndex:
    """An unordered vertex pair (i, j) with 1 <= i < j <= n.

    The pair has a canonical linear position in the lexicographic
    enumeration of all pairs: (1,2) -> 1, (1,3) -> 2, ..., (n-1,n) -> L.
    """

    i: int
    j: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need at least 2 points, got n={self.n}")
        if not (1 <= self.i < self.j <= self.n):
            raise DomainError(
                f"pair ({self.i},{self.j}) invalid for n={self.n}: need 1 <= i < j <= n"
            )

    @property
    def linear(self) -> int:
        """1-based position of this pair in lexicographic order."""
        return pair_to_linear(self)


def pair_to_linear(p: PairIndex) -> int:
    """Linear index (1-based) of a pair under lexicographic enumeration."""
    return linear_index(p.i, p.j, p.n)


def linear_index(i, j, n: int):
    """Closed form behind :func:`pair_to_linear` for 1-based vertices i < j.

    Pure integer arithmetic, so ``i`` and ``j`` may equally be Python ints
    or integer arrays of matching shape; no range check is made here.
    """
    return (i - 1) * n - i * (i - 1) // 2 + (j - i)


def linear_to_pair(k: int, n: int) -> PairIndex:
    """Inverse of :func:`pair_to_linear`; raises on k outside [1, L]."""
    L = num_pairs(n)
    if not 1 <= k <= L:
        raise DomainError(f"linear index {k} out of range [1, {L}] for n={n}")
    i = 1
    remaining = k
    while remaining > n - i:
        remaining -= n - i
        i += 1
    return PairIndex(i, i + remaining, n)


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (row, col) index arrays of all pairs in lexicographic order.

    They index the upper triangle for the atom expansion and the noise
    trials; public callers should prefer :class:`PairIndex`.  Built in
    O(L) memory as int64, without the n x n mask of ``np.triu_indices``.
    """
    lengths = np.arange(n - 1, 0, -1, dtype=np.int64)
    rows = np.repeat(np.arange(n - 1, dtype=np.int64), lengths)
    # columns step by 1 along a row and fall back to i + 1 where row i starts
    cols = np.ones(num_pairs(n), dtype=np.int64)
    cols[np.cumsum(lengths)[:-1]] = np.arange(3 - n, 1)
    np.cumsum(cols, out=cols)
    return rows, cols


def validate_symmetric(E, name: str, *, hollow: bool, nonnegative: bool = False,
                       centered: bool = False) -> np.ndarray:
    """``E`` as a float array, not copied, once it is a valid symmetric matrix.

    ``E`` must be square, finite and symmetric; ``hollow`` also asks for
    a zero diagonal, ``nonnegative`` for no negative entry and
    ``centered`` for zero row sums.  Each is judged against ``REL_TOL``
    times max |E|, as perturbation bounds for classical scaling are
    stated relative to the scale of D (Sibson 1979; Arias-Castro,
    Javanmard & Pelletier 2020), so that rescaling E changes no verdict.
    A violation raises :class:`~dualmds.errors.DomainError` naming ``name``.
    """
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {E.shape}")
    if not E.size:
        return E
    # min and max propagate NaN, so they test finiteness and give the scale
    lo, hi = float(E.min()), float(E.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{name} contains non-finite entries")
    tol = REL_TOL * max(hi, -lo)
    # fl(a - b) = -fl(b - a): E - E^T is exactly antisymmetric, so its
    # largest entry is its largest magnitude
    deviations = {"not symmetric: max |E - E^T|": float((E - E.T).max())}
    if hollow:
        deviations["diagonal not zero: max |diag|"] = float(np.abs(np.diagonal(E)).max())
    if nonnegative:
        deviations["has a negative entry: -min E"] = -lo
    if centered:
        deviations["not zero-centered: max |row sum|"] = float(np.abs(E.sum(axis=1)).max())
    for what, dev in deviations.items():
        if dev > tol:
            raise DomainError(
                f"{name} {what} = {dev:.3e} > {tol:.3e} = {REL_TOL:.0e} * max |E|"
            )
    return E


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SquaredDistanceMatrix:
    """Symmetric hollow nonnegative matrix of squared pairwise distances."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        E = np.array(entries, dtype=float)
        self.entries = _freeze(validate_symmetric(E, "squared-distance matrix",
                                                  hollow=True, nonnegative=True))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def upper_entries(self) -> np.ndarray:
        """Entries above the diagonal in lexicographic pair order."""
        rows, cols = pair_arrays(self.n)
        return self.entries[rows, cols]


class GramMatrix:
    """Symmetric matrix with zero row sums (inner products of centered points)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        E = np.array(entries, dtype=float)
        self.entries = _freeze(validate_symmetric(E, "Gram matrix", hollow=False,
                                                  centered=True))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class PointConfiguration:
    """n points in R^r stacked as rows, with n > r."""

    __slots__ = ("points",)

    def __init__(self, points):
        P = np.array(points, dtype=float)
        if P.ndim != 2:
            raise DomainError(f"points must be a 2-d array, got shape {P.shape}")
        if not np.all(np.isfinite(P)):
            raise DomainError("points contain non-finite coordinates")
        n, r = P.shape
        if n <= r:
            raise DomainError(f"need more points than dimensions, got n={n}, r={r}")
        self.points = _freeze(P)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def r(self) -> int:
        return self.points.shape[1]


class CenteringMatrix:
    """The projection I - (1/n) 11^T onto the mean-zero subspace."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int):
        if n < 2:
            raise DomainError(f"centering matrix needs n >= 2, got {n}")
        self.n = n
        E = np.eye(n) - np.full((n, n), 1.0 / n)
        self.entries = _freeze(E)


def centering_matrix(n: int) -> CenteringMatrix:
    """Centering matrix of size n: diagonal (n-1)/n, off-diagonal -1/n."""
    return CenteringMatrix(n)
