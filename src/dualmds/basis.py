"""The measurement atoms w, their rank-2 duals v, and the atom Gram matrix.

For every vertex pair alpha = (i, j) there is a sparse integer atom
``w_alpha`` that reads a squared distance off a Gram matrix, and a dense
rank-2 dual atom ``v_alpha`` built from two columns of the centering
matrix.  The families are biorthogonal: <v_alpha, w_beta> is 1 when
alpha = beta and 0 otherwise, where <A, B> = trace(A^T B).

The L x L Gram matrix H of the w family (L = n(n-1)/2 pairs) decomposes
as 4I plus the adjacency matrix of the triangular graph (pairs adjacent
iff they share a vertex), which pins its spectrum to the three values
2, n and 2n.  The Gram matrix of the v family is H^{-1}, with entries
available in closed form from centering-matrix entries.

With M the L x n pair-vertex incidence matrix, H = 2I + M M^T, and
M M^T (:func:`pair_overlaps`, the number of vertices two pairs share)
takes the values 0, 1 and 2.  So the dual Gram matrix is a lookup of
three floats indexed by M M^T, and the spectrum of M M^T comes from the
n x n matrix M^T M padded with zeros (:func:`overlap_spectrum`); no
L x L eigensolve is needed where M M^T is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .pairspace import PairIndex, num_pairs, pair_arrays
from .spectral import sym_eigvals

DENSE_PAIR_CAP = 20000
DEVIATION_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class BasisAtom:
    """Integer atom with +1 at both diagonal slots of its pair, -1 off-diagonal."""

    alpha: PairIndex
    entries: np.ndarray

    def __post_init__(self):
        E = self.entries
        n = self.alpha.n
        if E.shape != (n, n):
            raise DomainError(f"atom entries must be {n}x{n}, got {E.shape}")
        if np.count_nonzero(E) != 4:
            raise DomainError("atom must have exactly four nonzero entries")
        if not np.array_equal(E, E.T) or int(E.trace()) != 2 or np.any(E.sum(axis=1)):
            raise DomainError("atom must be symmetric with zero row sums and trace 2")
        E.setflags(write=False)


class DualAtom:
    """Rank-2 dual atom -1/2 (a b^T + b a^T) stored by its two factors.

    The factors a and b are the centering-matrix columns at the pair's
    two vertices; the dense matrix is materialized on first request and
    cached.  Rank is exactly 2 for n >= 3 and degenerates to 1 at n = 2,
    where the second eigenvalue -1/2 + 1/n vanishes.
    """

    __slots__ = ("alpha", "a", "b", "_matrix")

    def __init__(self, alpha: PairIndex, a: np.ndarray, b: np.ndarray):
        self.alpha = alpha
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (alpha.n,) or b.shape != (alpha.n,):
            raise DomainError(f"dyadic factors must have shape ({alpha.n},)")
        a.setflags(write=False)
        b.setflags(write=False)
        self.a = a
        self.b = b
        self._matrix = None

    def materialize(self) -> np.ndarray:
        """Dense n x n form; computed once, then cached read-only."""
        if self._matrix is None:
            M = -0.5 * (np.outer(self.a, self.b) + np.outer(self.b, self.a))
            M.setflags(write=False)
            self._matrix = M
        return self._matrix


@dataclass(frozen=True, eq=False)
class BasisGram:
    """The L x L Gram matrix H of the w family: diagonal 4, off-diagonal 0/1."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        L = num_pairs(self.n)
        E = self.entries
        if E.shape != (L, L):
            raise DomainError(f"Gram entries must be {L}x{L}, got {E.shape}")
        E.setflags(write=False)

    @property
    def num_pairs(self) -> int:
        return self.entries.shape[0]


def basis_atom(alpha: PairIndex) -> BasisAtom:
    """The four-entry integer atom for pair alpha."""
    n = alpha.n
    i, j = alpha.i - 1, alpha.j - 1
    E = np.zeros((n, n), dtype=np.int64)
    E[i, i] = 1
    E[j, j] = 1
    E[i, j] = -1
    E[j, i] = -1
    return BasisAtom(alpha=alpha, entries=E)


def dual_atom(alpha: PairIndex) -> DualAtom:
    """The rank-2 dual atom for pair alpha, factored through J's columns.

    Column k of J is e_k - (1/n) 1, formed directly: 1 + (-1/n) is the
    same float as 1 - 1/n, so the factors equal the columns of
    :func:`~dualmds.pairspace.centering_matrix` bit for bit.
    """
    n = alpha.n
    a = np.full(n, -1.0 / n)
    a[alpha.i - 1] += 1.0
    b = np.full(n, -1.0 / n)
    b[alpha.j - 1] += 1.0
    return DualAtom(alpha=alpha, a=a, b=b)


def dual_atom_eigenpairs(alpha: PairIndex) -> tuple[tuple[float, np.ndarray],
                                                    tuple[float, np.ndarray]]:
    """The two (eigenvalue, eigenvector) pairs of a dual atom.

    Returns (1/2, a - b) and (-1/2 + 1/n, a + b).  The eigenvectors are
    returned unnormalized.  At n = 2 the second eigenvalue is 0 and the
    atom is rank 1.
    """
    v = dual_atom(alpha)
    return (0.5, v.a - v.b), (-0.5 + 1.0 / alpha.n, v.a + v.b)


def basis_gram(n: int) -> BasisGram:
    """Dense H for n points: 4 on the diagonal, 1 iff pairs share a vertex.

    Refuses to allocate when the pair count exceeds ``DENSE_PAIR_CAP``
    (L x L dense storage); use :func:`h_matvec` past that scale.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    _require_dense_pairs(n)
    rows, cols = pair_arrays(n)
    share = (
        (rows[:, None] == rows[None, :])
        | (rows[:, None] == cols[None, :])
        | (cols[:, None] == rows[None, :])
        | (cols[:, None] == cols[None, :])
    )
    H = share.astype(np.float64)
    np.fill_diagonal(H, 4.0)
    return BasisGram(n=n, entries=H)


def _require_dense_pairs(n: int) -> None:
    L = num_pairs(n)
    if L > DENSE_PAIR_CAP:
        raise ResourceLimitError(
            f"n={n} gives {L} pairs, beyond the dense cap of {DENSE_PAIR_CAP}"
        )


def incidence_matrix(n: int) -> np.ndarray:
    """The L x n pair-vertex incidence matrix M: a 1 at both vertices of each pair.

    float64, so that products with it run in BLAS; their entries are
    small integer counts and therefore exact.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    L = num_pairs(n)
    rows, cols = pair_arrays(n)
    M = np.zeros((L, n))
    M[np.arange(L), rows] = 1.0
    M[np.arange(L), cols] = 1.0
    return M


def pair_overlaps(n: int) -> np.ndarray:
    """M M^T as uint8: the number of vertices two pairs share, 0, 1 or 2.

    Every L x L matrix the package checks lies in span{I, M M^T, 11^T}:
    H = 2I + M M^T and A^T A = (3n-4) I - M M^T.  One byte per entry
    holds the counts exactly at an eighth of the memory of H.
    """
    _require_dense_pairs(n)
    M = incidence_matrix(n)
    return (M @ M.T).astype(np.uint8)


def overlap_spectrum(n: int) -> np.ndarray:
    """The L eigenvalues of M M^T, descending, from the n x n matrix M^T M.

    M M^T and M^T M share their nonzero eigenvalues, and L >= n for
    n >= 3, so the spectrum of M M^T is that of M^T M followed by L - n
    exact zeros.  M^T M = (n-2) I + 11^T has the eigenvalues n - 2 and
    2n - 2, so the zeros come last; at n = 2 (L = 1) the zero eigenvalue
    of M^T M is the one dropped.  Only an n x n eigensolve is made.
    """
    M = incidence_matrix(n)
    L = num_pairs(n)
    values = np.zeros(max(L, n))
    values[:n] = sym_eigvals(M.T @ M)
    return values[:L]


def triangular_graph_adjacency(n: int, overlaps: np.ndarray | None = None) -> np.ndarray:
    """Adjacency matrix of the triangular graph: pairs adjacent iff they meet.

    Built independently of :func:`basis_gram`: M M^T counts the vertices
    two pairs share -- 2 on the diagonal, 1 for adjacent pairs, 0 for
    disjoint ones -- instead of comparing endpoints as :func:`basis_gram`
    does.  ``overlaps`` is M M^T from :func:`pair_overlaps`, when the
    caller already holds it.  ``basis_gram(n) - 4I`` must equal this
    matrix exactly.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    if overlaps is None:
        overlaps = pair_overlaps(n)
    return (overlaps == 1).astype(np.int64)


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report it."""
    import os

    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_dense_memory(n: int, arrays: float, what: str) -> None:
    """Refuse a dense run whose estimated peak exceeds physical memory.

    The estimate is ``arrays`` L x L float64 arrays, arrays * L^2 * 8
    bytes; each caller states its measured ``arrays``.  Called before
    anything of that size is allocated, so an oversized request ends
    with :class:`~dualmds.errors.ResourceLimitError` (exit 2), not by
    exhausting memory.
    """
    need = arrays * num_pairs(n) ** 2 * 8
    have = physical_memory()
    if have is not None and need > have:
        raise ResourceLimitError(
            f"{what} at n={n} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def integer_deviation(H: np.ndarray, other: np.ndarray, sign: int, diag: int) -> int:
    """max |rint(H) + sign * other - diag * I| over all entries, as an exact integer.

    ``H`` is a square matrix with integer entries, such as the atom Gram
    matrix, ``other`` an integer matrix of the same shape and ``sign``
    +1 or -1.  The difference is formed in int64 a block of rows at a
    time, about DEVIATION_BLOCK_ENTRIES entries each, so no temporary of
    the size of ``H`` is made.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    rows = H.shape[0]
    step = max(1, DEVIATION_BLOCK_ENTRIES // max(1, H.shape[1]))
    worst = 0
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        D = np.empty((stop - start, H.shape[1]), dtype=np.int64)
        np.rint(H[start:stop], out=D, casting="unsafe")
        if sign == 1:
            D += other[start:stop]
        else:
            D -= other[start:stop]
        D[np.arange(stop - start), np.arange(start, stop)] -= diag
        np.abs(D, out=D)
        worst = max(worst, int(D.max()))
    return worst


def h_matvec(n: int, x: np.ndarray) -> np.ndarray:
    """Product H @ x without materializing H.

    Uses the per-vertex load s_v = sum of x over pairs containing v:
    (Hx) at pair (i, j) equals 2 x_(i,j) + s_i + s_j.
    """
    x = np.asarray(x, dtype=float)
    L = num_pairs(n)
    if x.shape != (L,):
        raise DomainError(f"expected a vector of length {L}, got shape {x.shape}")
    rows, cols = pair_arrays(n)
    s = np.zeros(n)
    np.add.at(s, rows, x)
    np.add.at(s, cols, x)
    return 2.0 * x + s[rows] + s[cols]


def h_spectrum_predicted(n: int) -> list[tuple[float, int]]:
    """Closed-form spectrum of H: eigenvalues 2, n, 2n.

    Multiplicities are L - n, n - 1 and 1.  Groups with equal eigenvalue
    are merged and zero-multiplicity groups dropped, which only matters
    for the degenerate sizes n = 2 (single pair, spectrum {4}) and n = 3
    (eigenvalue 2 absent).  Returned in increasing eigenvalue order.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    L = num_pairs(n)
    merged: dict[float, int] = {}
    for value, mult in ((2.0, L - n), (float(n), n - 1), (2.0 * n, 1)):
        merged[value] = merged.get(value, 0) + mult
    groups = [(v, m) for v, m in sorted(merged.items()) if m > 0]
    if sum(m for _, m in groups) != L:
        raise DomainError(f"spectrum multiplicities must sum to {L}")
    return groups


def dual_gram_entry(alpha: PairIndex, beta: PairIndex) -> float:
    """Inner product <v_alpha, v_beta> from the dyadic factors.

    Expands trace((a b^T + b a^T)(c d^T + d c^T)) / 4 into dot products
    of centering-matrix columns:  ((a.c)(b.d) + (a.d)(b.c)) / 2.
    Assembling all entries yields the inverse of the atom Gram matrix.
    """
    if alpha.n != beta.n:
        raise DomainError(f"pairs live in different sizes: n={alpha.n} vs n={beta.n}")
    va = dual_atom(alpha)
    vb = dual_atom(beta)
    return 0.5 * (
        float(va.a @ vb.a) * float(va.b @ vb.b)
        + float(va.a @ vb.b) * float(va.b @ vb.a)
    )


def dual_gram_matrix(n: int, overlaps: np.ndarray | None = None) -> np.ndarray:
    """All L x L inner products of the dual family, i.e. H^{-1}.

    The entry formula of :func:`dual_gram_entry` reads four entries of
    the centering matrix J, each d = 1 - 1/n on the diagonal or o = -1/n
    off it, so it takes one value per number of shared vertices:
    (d d + o o)/2 for equal pairs, (d o + o o)/2 for pairs that share a
    vertex and (o o + o o)/2 for disjoint ones.  These are the same
    floating-point products the entry formula forms, so the matrix is a
    lookup of three floats indexed by ``overlaps`` = M M^T
    (:func:`pair_overlaps`, built here when not given).
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    if overlaps is None:
        overlaps = pair_overlaps(n)
    d, o = 1.0 - 1.0 / n, -1.0 / n
    values = np.array([0.5 * (o * o + o * o),
                       0.5 * (d * o + o * o),
                       0.5 * (d * d + o * o)])
    return values[overlaps]
