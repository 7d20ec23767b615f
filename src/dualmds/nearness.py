"""Triangle-inequality constraints on dissimilarity matrices.

A dissimilarity matrix holds plain (not squared) distances.  For every
vertex triple {i < j < k} there are three triangle inequalities, one per
choice of the "long" side; stacking their sign patterns over all triples
gives a sparse constraint matrix A with one +1 and two -1 entries per
row and one column per vertex pair.  A is stored as the three edge
columns of each triple; row s of a triple's block is +1 on edge s and
-1 on the other two.

With M the pair-vertex incidence matrix, :func:`constraint_gram_deviation`
is the one exact integer test, shared by ``verify`` and ``nearness``, of
A^T A = (3n-4) I - M M^T.  With H = 4I + A_1 = 2I + M M^T (``verify``'s
``triangular_decomposition``) it gives the paper's A^T A = (3n-2) I - H,
which pins A's singular values to sqrt(3n-4), sqrt(2n-2) and sqrt(n-2).

The lemma behind it: a triple's three rows add 4I - 11^T on its edge
columns, so A^T A is the sum of these blocks over the triples.  The test
holds no L x L array when it passes: it first proves, a block of triples
at a time, that A's triples are exactly the vertex triples, and then
A^T A lies in the Bose-Mesner algebra of the Johnson scheme J(n, 2), so
one entry per relation class of two pairs (equal, sharing a vertex,
disjoint) decides every entry.  Only an A that fails the structure test
takes the dense route through A^T A and M M^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (integer_deviation, overlap_spectrum, pair_overlaps,
                    require_dense_memory, require_memory)
from .errors import DomainError
from .pairspace import (PairIndex, linear_index, linear_to_pair, num_pairs, pair_arrays,
                        pair_to_linear, validate_symmetric)
from .spectral import spectrum_verdict, sym_eigvals

# Peak memory of a passing `dualmds nearness` in bytes per constraint row,
# for the up-front refusal.  Building ``edges`` (8 bytes per row) is the
# peak: measured peak RSS 81 MB at n = 200 and 201 MB at n = 300, a slope
# of 13.4 bytes per row; rounded up.  Both exports are written a block of
# rows at a time, so neither adds a term; a disk that fills during the
# write ends the run with exit code 3.
NEARNESS_ROW_BYTES = 16
# Peak of the dense route, taken only by an A that fails the structure
# test, in L x L float64 arrays (8 L^2 bytes each): measured 213 MB at
# n = 80 and 462 MB at n = 100, a slope of 2.24 arrays; rounded up.
DENSE_ROUTE_ARRAYS = 2.5
# Triples per block of the structure test: each int64 temporary stays at
# 384 KiB.
STRUCTURE_BLOCK_TRIPLES = 1 << 14


def num_constraints(n: int) -> int:
    """Three constraints per vertex triple: 3 * C(n, 3) = L * (n - 2)."""
    return num_pairs(n) * (n - 2)


@dataclass(frozen=True)
class TripleConstraint:
    """One triangle inequality: positive pair's entry <= sum of the other two.

    The three pairs are the edges of a single vertex triple; the
    constraint reads  D[positive] - D[negatives[0]] - D[negatives[1]] <= 0.
    """

    positive: PairIndex
    negatives: tuple[PairIndex, PairIndex]

    def __post_init__(self):
        pairs = (self.positive,) + self.negatives
        if len({(p.i, p.j) for p in pairs}) != 3:
            raise DomainError("constraint pairs must be three distinct pairs")
        vertices = {v for p in pairs for v in (p.i, p.j)}
        if len(vertices) != 3:
            raise DomainError("constraint pairs must be the edges of one vertex triple")

    @property
    def third_vertex(self) -> int:
        """The vertex not on the positive pair (shared by both negatives)."""
        (v,) = {self.negatives[0].i, self.negatives[0].j} & {
            self.negatives[1].i,
            self.negatives[1].j,
        }
        return v


@dataclass(frozen=True)
class ConstraintViolation:
    """A violated constraint: its 1-based row, the constraint, the slack."""

    row: int
    constraint: TripleConstraint
    slack: float


def _lex_edges(n: int) -> np.ndarray:
    """0-based columns of the edges ij, ik, jk of every vertex triple i < j < k.

    Triples come in lexicographic order: pair ij, in the order of
    :func:`~dualmds.pairspace.pair_arrays`, is followed by k = j+1 ... n,
    so its column repeats n - j times, while the columns of ik and jk
    step by one along that run from those of (i, j+1) and (j, j+1).
    """
    _, second = pair_arrays(n)
    runs = n - 1 - second
    columns = np.arange(second.size)
    edges = np.repeat(np.stack([columns, columns + 1,
                                linear_index(second + 1, second + 2, n) - 1], axis=1),
                      runs, axis=0)
    edges[:, 1:] += (np.arange(edges.shape[0])
                     - np.repeat(np.cumsum(runs) - runs, runs))[:, None]
    return edges


# Row s of a triple's block in the triple's edge coordinates: +1 on edge s,
# -1 on the other two, 2 e_s - (e_0 + e_1 + e_2).
SIGNS = 2 * np.eye(3, dtype=np.int64) - 1


class ConstraintMatrix:
    """Sparse signed constraint matrix: 3 * C(n, 3) rows, L columns.

    Stored as one read-only int64 array, ``edges``, of shape (C(n, 3), 3):
    row t holds the 0-based columns of triple t's edges (i,j), (i,k),
    (j,k), triples enumerated lexicographically.  Row 3t + s of A puts
    +1 on edge s and -1 on the other two (``SIGNS[s]``), so every row is
    a triangle row by construction and nothing else is stored per row.

    The columns are the closed form of
    :func:`~dualmds.pairspace.pair_to_linear` evaluated on whole arrays
    at once; construction builds no per-edge :class:`PairIndex` objects.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int):
        if n < 3:
            raise DomainError(f"triangle constraints need n >= 3, got n={n}")
        self.n = n
        self.edges = _lex_edges(n)
        self.edges.setflags(write=False)

    @property
    def num_rows(self) -> int:
        return 3 * self.edges.shape[0]

    @property
    def num_cols(self) -> int:
        return num_pairs(self.n)

    def constraint(self, row: int) -> TripleConstraint:
        """The triangle inequality at 1-based row index ``row``."""
        if not 1 <= row <= self.num_rows:
            raise DomainError(f"row {row} out of range [1, {self.num_rows}]")
        t, slot = divmod(row - 1, 3)
        ij, ik, _ = (int(c) for c in self.edges[t])
        first = linear_to_pair(ij + 1, self.n)
        # edges ij and ik lie k - j apart in the lexicographic pair order
        i, j, k = first.i, first.j, first.j + ik - ij
        edges = [first, PairIndex(i, k, self.n), PairIndex(j, k, self.n)]
        return TripleConstraint(positive=edges.pop(slot), negatives=tuple(edges))

    def row_of(self, positive: PairIndex, third_vertex: int) -> int:
        """1-based row holding the constraint with this positive pair and apex."""
        tri = tuple(sorted((positive.i, positive.j, third_vertex)))
        if len(set(tri)) != 3 or not all(1 <= v <= self.n for v in tri):
            raise DomainError(f"{tri} is not a vertex triple for n={self.n}")
        i, j, k = tri
        cols = [linear_index(a, b, self.n) - 1 for a, b in ((i, j), (i, k), (j, k))]
        t = int(np.flatnonzero((self.edges == cols).all(axis=1))[0])
        return 3 * t + cols.index(pair_to_linear(positive) - 1) + 1

    def to_dense(self) -> np.ndarray:
        """Dense signed matrix, refused when its int64 entries exceed available memory."""
        entries = self.num_rows * self.num_cols
        require_memory(self.n, 8 * entries, "the dense constraint matrix")
        (A,) = self.dense_blocks(entries)
        return A

    def dense_blocks(self, entries: int):
        """The dense signed matrix as consecutive int64 blocks of whole rows.

        Each block holds about ``entries`` entries (at least one row).
        """
        rows = max(1, entries // self.num_cols)
        return (self._dense_rows(start, min(start + rows, self.num_rows))
                for start in range(0, self.num_rows, rows))

    def _dense_rows(self, start: int, stop: int) -> np.ndarray:
        r = np.arange(start, stop)
        A = np.zeros((r.size, self.num_cols), dtype=np.int64)
        A[np.arange(r.size)[:, None], self.edges[r // 3]] = SIGNS[r % 3]
        return A

    def triplets(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Signed entries of triples [start, stop) as rows (row, column, sign).

        An int64 array of shape (9 * triples, 3), 1-based, ordered by
        row, then column; the default range is all of A.  A triple's
        columns (ij, ik, jk) are ascending and shared by its three rows,
        and row s of the block has its +1 in slot s, so the entries are
        written in order into one preallocated array, through its
        (triple, row in block, slot, field) view.
        """
        edges = self.edges[start:stop]
        out = np.empty((edges.shape[0], 3, 3, 3), dtype=np.int64)
        out[..., 0] = np.arange(3 * start + 1, 3 * (start + edges.shape[0]), 3)[:, None, None]
        out[..., 0] += np.arange(3)[:, None]
        out[..., 1] = edges[:, None, :]
        out[..., 1] += 1
        out[..., 2] = SIGNS
        return out.reshape(-1, 3)

    def triplet_blocks(self, lines: int):
        """:meth:`triplets` as consecutive blocks of whole triples, in order.

        Each block holds about ``lines`` entries (at least one triple's nine).
        """
        triples = max(1, lines // 9)
        return (self.triplets(start, start + triples)
                for start in range(0, self.edges.shape[0], triples))

    def gram(self) -> np.ndarray:
        """A^T A, exact in int64, held in one L x L array.

        Lemma: triple T's rows are 2e_s - (e_0 + e_1 + e_2) in the
        coordinates of its edge columns, so they add 4I - 11^T on those
        columns, and A^T A is the sum of these blocks over all triples.
        The 11^T parts are one count of the flat index p * L + q over the
        nine edge pairs (p, q) of each triple, negated in place; the 4I
        parts add four times each column's count of edges to the
        diagonal.  This holds for any ``edges``, repeated columns too.
        """
        L = self.num_cols
        e = self.edges
        if e.size and (e.min() < 0 or e.max() >= L):
            raise DomainError(f"constraint columns must lie in [0, {L})")
        G = np.bincount((e[:, :, None] * L + e[:, None, :]).ravel(), minlength=L * L)
        np.negative(G, out=G)
        G[::L + 1] += 4 * np.bincount(e.ravel(), minlength=L)
        return G.reshape(L, L)

    def apply(self, upper: np.ndarray) -> np.ndarray:
        """Product A @ upper for a vector indexed by pairs."""
        upper = np.asarray(upper, dtype=float)
        if upper.shape != (self.num_cols,):
            raise DomainError(
                f"expected a vector of length {self.num_cols}, got {upper.shape}"
            )
        u = upper[self.edges]
        return (u - u[:, [1, 0, 0]] - u[:, [2, 2, 1]]).ravel()


@dataclass(frozen=True, eq=False)
class DissimilarityMatrix:
    """Symmetric hollow nonnegative matrix of plain (non-squared) distances."""

    entries: np.ndarray

    def __post_init__(self):
        E = validate_symmetric(np.array(self.entries, dtype=float),
                               "dissimilarity matrix", hollow=True, nonnegative=True)
        E.setflags(write=False)
        object.__setattr__(self, "entries", E)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def upper_entries(self) -> np.ndarray:
        rows, cols = pair_arrays(self.n)
        return self.entries[rows, cols]


def constraint_matrix(n: int) -> ConstraintMatrix:
    """All triangle-inequality sign patterns for n points."""
    return ConstraintMatrix(n)


def constraint_gram(n: int) -> np.ndarray:
    """A^T A accumulated exactly in integers from the sparse entries."""
    return constraint_matrix(n).gram()


def _colex_rank(lo, mid, hi):
    """Rank of the 0-based vertex triple lo < mid < hi in colex order.

    C(lo, 1) + C(mid, 2) + C(hi, 3), a bijection onto [0, C(n, 3)) that
    shares nothing with the lexicographic pair order of ``linear_index``.
    """
    return lo + mid * (mid - 1) // 2 + hi * (hi - 1) * (hi - 2) // 6


def _has_triangle_rows(A: ConstraintMatrix) -> bool:
    """Whether A's triples are exactly the C(n, 3) vertex triples, each once.

    Row 3t + s of A is a triangle row whenever triple t's edges decode
    to (i,j), (i,k), (j,k), so it is enough to check that every column
    is in range, that the edges decode that way (i < j < k follows, as
    each edge is a pair), and that the colex ranks of the triples cover
    [0, C(n, 3)).  The triples may come in any order.  Exact, in
    O(C(n, 3)), a block of triples at a time.
    """
    triples = num_constraints(A.n) // 3
    if A.edges.shape != (triples, 3):
        return False
    first, second = pair_arrays(A.n)
    seen = np.zeros(triples, dtype=bool)
    for start in range(0, triples, STRUCTURE_BLOCK_TRIPLES):
        e = A.edges[start:start + STRUCTURE_BLOCK_TRIPLES]
        if e.min() < 0 or e.max() >= first.size:
            return False
        lo, hi = first[e], second[e]
        if not ((lo[:, 0] == lo[:, 1]) & (hi[:, 0] == lo[:, 2])
                & (hi[:, 1] == hi[:, 2])).all():
            return False
        seen[_colex_rank(lo[:, 0], hi[:, 0], hi[:, 1])] = True
    return bool(seen.all())


def _class_deviation(A: ConstraintMatrix) -> int:
    """max |(A^T A)[alpha, beta] - (3n-4) delta + |alpha & beta||, one beta per class.

    alpha = (1, 2); beta runs over alpha itself, (1, 3) and, from n = 4,
    (3, 4).  With triangle rows, each triple that holds both alpha and
    beta adds 3 to the entry when beta = alpha and -1 otherwise, so each
    entry is a count over the n - 2 triples that hold alpha, always as
    their edge (i,j).
    """
    n = A.n
    alpha = 0
    held = A.edges[A.edges[:, 0] == alpha]
    classes = [(alpha, 2), (linear_index(1, 3, n) - 1, 1)]
    if n >= 4:
        classes.append((linear_index(3, 4, n) - 1, 0))
    return max(
        abs((3 if beta == alpha else -1) * int((held == beta).any(axis=1).sum())
            - (3 * n - 4) * (beta == alpha) + overlap)
        for beta, overlap in classes
    )


def constraint_gram_deviation(A: ConstraintMatrix) -> int:
    """max |A^T A + M M^T - (3n-4) I| over all L^2 entries, an exact integer.

    0 when the identity holds.  By the lemma of
    :meth:`ConstraintMatrix.gram`, A^T A is the sum over A's triples of
    4I - 11^T on each triple's edges.  When those triples are exactly
    the vertex triples (:func:`_has_triangle_rows`), an entry
    depends only on how its pairs alpha and beta meet: 3(n-2) when they
    are equal (alpha lies in n - 2 triples), -1 when they share one
    vertex (one common triple) and 0 when they are disjoint.  (3n-4) I -
    M M^T takes one value per class as well, so one entry per class
    (:func:`_class_deviation`) gives the exact maximum over all L^2
    entries.  An A that fails the structure test takes the dense route,
    A^T A against :func:`~dualmds.basis.pair_overlaps` in
    :func:`~dualmds.basis.integer_deviation`, so a failing report gives
    the actual deviation; sizes the dense route cannot hold are refused
    with :class:`~dualmds.errors.ResourceLimitError`.
    """
    if _has_triangle_rows(A):
        return _class_deviation(A)
    require_dense_memory(A.n, DENSE_ROUTE_ARRAYS, "the dense constraint-Gram route")
    overlaps = pair_overlaps(A.n)
    return integer_deviation(A.gram(), overlaps, 1, 3 * A.n - 4)


def gram_identity_check(n: int) -> tuple[bool, int]:
    """Prove A^T A = (3n-4) I - M M^T in exact integers: (holds, max deviation).

    With H = 2I + M M^T this is the paper's A^T A = (3n-2) I - H.
    """
    deviation = constraint_gram_deviation(constraint_matrix(n))
    return deviation == 0, deviation


def predicted_singular_values(n: int) -> list[tuple[float, int]]:
    """Closed-form singular values of A with multiplicities, descending.

    sqrt(3n-4) with multiplicity n(n-3)/2, sqrt(2n-2) with multiplicity
    n-1, and sqrt(n-2) once; multiplicities sum to L.  The first group
    is empty at n = 3 and is dropped there.
    """
    if n < 3:
        raise DomainError(f"triangle constraints need n >= 3, got n={n}")
    groups = [
        (float(np.sqrt(3 * n - 4)), n * (n - 3) // 2),
        (float(np.sqrt(2 * n - 2)), n - 1),
        (float(np.sqrt(n - 2)), 1),
    ]
    kept = [(v, m) for v, m in groups if m > 0]
    if sum(m for _, m in kept) != num_pairs(n):
        raise DomainError("singular-value multiplicities must sum to the pair count")
    return kept


def singular_value_verdict(A: ConstraintMatrix,
                           exact: bool) -> tuple[bool, list[tuple[float, int]]]:
    """Verdict on A's singular values, and their groups.

    The singular values are the square roots of the eigenvalues of
    A^T A, compared with :func:`predicted_singular_values` by
    :func:`~dualmds.spectral.spectrum_verdict`.  ``exact`` is the verdict
    of :func:`constraint_gram_deviation`; when it holds they are
    sqrt(3n-4 - mu) over the eigenvalues mu of M M^T, which
    :func:`~dualmds.basis.overlap_spectrum` takes from the n x n matrix
    M^T M.  Otherwise A^T A is built and decomposed densely, so a
    failing report shows its actual spectrum.
    """
    n = A.n
    if exact:
        eigenvalues = (3 * n - 4) - overlap_spectrum(n)[::-1]
    else:
        require_dense_memory(n, DENSE_ROUTE_ARRAYS, "the dense constraint-Gram route")
        eigenvalues = sym_eigvals(A.gram().astype(float))
    singular = np.sqrt(np.clip(eigenvalues, 0.0, None))
    return spectrum_verdict(singular, predicted_singular_values(n))


def violations(D: DissimilarityMatrix, tol: float = 0.0) -> list[ConstraintViolation]:
    """All triangle inequalities that D breaks by more than ``tol``.

    Accepts plain distances only; squared-distance matrices are a
    different type and are rejected outright to keep the units straight.
    Results are sorted by row index.
    """
    if not isinstance(D, DissimilarityMatrix):
        raise TypeError(
            f"violations expects a DissimilarityMatrix, got {type(D).__name__}; "
            "plain distances, not squared"
        )
    A = constraint_matrix(D.n)
    slack = A.apply(D.upper_entries())
    bad = np.nonzero(slack > tol)[0]
    return [
        ConstraintViolation(row=int(t) + 1, constraint=A.constraint(int(t) + 1),
                            slack=float(slack[t]))
        for t in bad
    ]
