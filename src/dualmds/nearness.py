"""Triangle-inequality constraints on dissimilarity matrices.

A dissimilarity matrix holds plain (not squared) distances.  For every
vertex triple {i < j < k} there are three triangle inequalities, one per
choice of the "long" side; stacking their sign patterns over all triples
gives a sparse constraint matrix A with one +1 and two -1 entries per
row and one column per vertex pair.

With M the pair-vertex incidence matrix, :func:`constraint_gram_deviation`
is the one exact integer test, shared by ``verify`` and ``nearness``, of
A^T A = (3n-4) I - M M^T.  With H = 4I + A_1 = 2I + M M^T (``verify``'s
``triangular_decomposition``) it gives the paper's A^T A = (3n-2) I - H,
which pins A's singular values to sqrt(3n-4), sqrt(2n-2) and sqrt(n-2).

The test holds no L x L array when it passes: it first proves, a block
of rows at a time, that A's rows are exactly the triangle rows, and then
A^T A lies in the Bose-Mesner algebra of the Johnson scheme J(n, 2), so
one entry per relation class of two pairs (equal, sharing a vertex,
disjoint) decides every entry.  Only an A that fails the structure test
takes the dense route through A^T A and M M^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (integer_deviation, overlap_spectrum, pair_overlaps,
                    require_dense_memory)
from .errors import DomainError, ResourceLimitError
from .pairspace import PairIndex, linear_index, num_pairs, pair_arrays, validate_symmetric
from .spectral import spectrum_verdict, sym_eigvals

DENSE_ENTRY_CAP = 200_000_000
# Peak memory of a passing `dualmds nearness` in bytes per constraint row,
# for the up-front refusal.  Building A is the peak: measured peak RSS
# 240 MB at n = 200 and 642 MB at n = 300, a slope of 44.7 bytes per row;
# rounded up.  The triplet export builds all 3 * rows entries at once:
# 171 MB at n = 120 and 721 MB at n = 200 with `--format triplets --out`,
# a slope of 186 bytes per row; rounded up.  The dense CSV is written a
# block of rows at a time and is capped at DENSE_ENTRY_CAP entries.
NEARNESS_ROW_BYTES = 48
TRIPLET_EXPORT_ROW_BYTES = 192
# Peak of the dense route, taken only by an A that fails the structure
# test, in L x L float64 arrays (8 L^2 bytes each): measured 213 MB at
# n = 80 and 462 MB at n = 100, a slope of 2.24 arrays; rounded up.
DENSE_ROUTE_ARRAYS = 2.5
# Rows per block of the structure test: each int64 temporary stays at 128 KiB
# (20 ms per test at n = 120, against 25 ms with blocks 4x larger).
STRUCTURE_BLOCK_ROWS = 1 << 14


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


def _lex_triples(n: int) -> np.ndarray:
    """All 1-based vertex triples i < j < k in lexicographic order, as int64 rows.

    Pair (i, j), in the lexicographic order of
    :func:`~dualmds.pairspace.pair_arrays`, is followed by k = j+1 ... n,
    so each pair is repeated n - j times and k counts up from j + 1
    within its run.
    """
    rows, cols = pair_arrays(n)
    lengths = n - 1 - cols
    starts = np.cumsum(lengths) - lengths
    i = np.repeat(rows, lengths)
    j = np.repeat(cols, lengths)
    k = np.arange(i.size) - np.repeat(starts, lengths) + j + 1
    return np.stack([i, j, k], axis=1) + 1


class ConstraintMatrix:
    """Sparse signed constraint matrix: 3 * C(n, 3) rows, L columns.

    Rows come in blocks of three per vertex triple, triples enumerated
    lexicographically; within a block the positive pair cycles through
    (i,j), (i,k), (j,k).  Storage is one column index per signed entry
    (0-based internally): ``pos_col`` carries the +1 of each row,
    ``neg_cols`` the two -1s.

    The columns are the closed form of
    :func:`~dualmds.pairspace.pair_to_linear` evaluated on the whole
    triple arrays at once; construction builds no per-edge
    :class:`PairIndex` objects.
    """

    __slots__ = ("n", "triples", "pos_col", "neg_cols")

    def __init__(self, n: int):
        if n < 3:
            raise DomainError(f"triangle constraints need n >= 3, got n={n}")
        self.n = n
        self.triples = _lex_triples(n)
        i, j, k = self.triples.T
        lin = np.stack(
            [linear_index(i, j, n), linear_index(i, k, n), linear_index(j, k, n)],
            axis=1,
        ) - 1
        # slot s makes edge s positive and the other two negative
        self.pos_col = lin.reshape(-1)
        self.neg_cols = np.stack(
            [lin[:, [1, 0, 0]].reshape(-1), lin[:, [2, 2, 1]].reshape(-1)], axis=1
        )
        self.pos_col.setflags(write=False)
        self.neg_cols.setflags(write=False)
        self.triples.setflags(write=False)

    @property
    def num_rows(self) -> int:
        return self.pos_col.shape[0]

    @property
    def num_cols(self) -> int:
        return num_pairs(self.n)

    def constraint(self, row: int) -> TripleConstraint:
        """The triangle inequality at 1-based row index ``row``."""
        if not 1 <= row <= self.num_rows:
            raise DomainError(f"row {row} out of range [1, {self.num_rows}]")
        i, j, k = (int(v) for v in self.triples[(row - 1) // 3])
        slot = (row - 1) % 3
        edges = (
            PairIndex(i, j, self.n),
            PairIndex(i, k, self.n),
            PairIndex(j, k, self.n),
        )
        others = tuple(e for s, e in enumerate(edges) if s != slot)
        return TripleConstraint(positive=edges[slot], negatives=others)

    def row_of(self, positive: PairIndex, third_vertex: int) -> int:
        """1-based row holding the constraint with this positive pair and apex."""
        tri = tuple(sorted((positive.i, positive.j, third_vertex)))
        if len(set(tri)) != 3 or not all(1 <= v <= self.n for v in tri):
            raise DomainError(f"{tri} is not a vertex triple for n={self.n}")
        t = int(np.nonzero((self.triples == tri).all(axis=1))[0][0])
        i, j, k = tri
        slot = {(i, j): 0, (i, k): 1, (j, k): 2}[(positive.i, positive.j)]
        return 3 * t + slot + 1

    def to_dense(self) -> np.ndarray:
        """Dense signed matrix (small n only)."""
        (A,) = self.dense_blocks(self.num_rows * self.num_cols)
        return A

    def dense_blocks(self, entries: int):
        """The dense signed matrix as consecutive int64 blocks of whole rows.

        Each block holds about ``entries`` entries (at least one row).  A
        matrix past DENSE_ENTRY_CAP is refused here, at the call, before
        any block is built.
        """
        if self.num_rows * self.num_cols > DENSE_ENTRY_CAP:
            raise ResourceLimitError(
                f"dense constraint matrix for n={self.n} needs "
                f"{self.num_rows}x{self.num_cols} entries"
            )
        rows = max(1, entries // self.num_cols)
        return (self._dense_rows(start, start + rows)
                for start in range(0, self.num_rows, rows))

    def _dense_rows(self, start: int, stop: int) -> np.ndarray:
        pos = self.pos_col[start:stop]
        neg = self.neg_cols[start:stop]
        A = np.zeros((pos.shape[0], self.num_cols), dtype=np.int64)
        rows = np.arange(pos.shape[0])
        A[rows, pos] = 1
        A[rows, neg[:, 0]] = -1
        A[rows, neg[:, 1]] = -1
        return A

    def triplets(self) -> np.ndarray:
        """All signed entries as rows (row, column, sign), 1-based, sorted.

        An int64 array of shape (3 * num_rows, 3), ordered by row, then
        column.  A triple's columns (ij, ik, jk) are ascending and shared
        by its three rows, and row s of the block has its +1 in slot s,
        so the entries are built in order.
        """
        rows = np.repeat(np.arange(1, self.num_rows + 1), 3)
        cols = np.repeat(self.pos_col.reshape(-1, 3), 3, axis=0).ravel() + 1
        signs = np.tile(2 * np.eye(3, dtype=np.int64).ravel() - 1, self.num_rows // 3)
        return np.column_stack([rows, cols, signs])

    def gram(self) -> np.ndarray:
        """A^T A, exact in int64.

        Entry (p, q) sums sign_a * sign_b over the slots a, b of every row
        with column p in slot a and column q in slot b.  Slot 0 holds the
        +1 and slots 1, 2 the -1s, so the five slot pairs (0,0), (1,1),
        (2,2), (1,2), (2,1) add 1 and the four (0,1), (0,2), (1,0), (2,0)
        subtract 1: one count of the flat index p * L + q for the first,
        then a subtraction in place for the second, so one L x L array
        is held.
        """
        L = self.num_cols
        slots = (self.pos_col, self.neg_cols[:, 0], self.neg_cols[:, 1])
        if any(s.size and (s.min() < 0 or s.max() >= L) for s in slots):
            raise DomainError(f"constraint columns must lie in [0, {L})")

        def flat(pairs):
            return np.concatenate([slots[a] * L + slots[b] for a, b in pairs])

        G = np.bincount(flat(((0, 0), (1, 1), (2, 2), (1, 2), (2, 1))), minlength=L * L)
        np.subtract.at(G, flat(((0, 1), (0, 2), (1, 0), (2, 0))), 1)
        return G.reshape(L, L)

    def apply(self, upper: np.ndarray) -> np.ndarray:
        """Product A @ upper for a vector indexed by pairs."""
        upper = np.asarray(upper, dtype=float)
        if upper.shape != (self.num_cols,):
            raise DomainError(
                f"expected a vector of length {self.num_cols}, got {upper.shape}"
            )
        return (
            upper[self.pos_col]
            - upper[self.neg_cols[:, 0]]
            - upper[self.neg_cols[:, 1]]
        )


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
    """Whether A's rows are exactly the 3 C(n, 3) triangle rows, each once.

    A triangle row has its +1 on one edge of a vertex triple and its two
    -1s on the other two: the negative pairs share an apex vertex off
    the positive pair, and their other ends are the positive pair's
    vertices.  The key 3 rank(triple) + (the apex's place in the sorted
    triple) names each triangle row; with 3 C(n, 3) rows, every key in
    [0, 3 C(n, 3)) must be hit.  The rows may come in any order and the
    two negatives in either.  Exact, in O(rows), a block of rows at a time.
    """
    rows = num_constraints(A.n)
    if A.pos_col.shape != (rows,) or A.neg_cols.shape != (rows, 2):
        return False
    first, second = pair_arrays(A.n)
    seen = np.zeros(rows, dtype=bool)
    for start in range(0, rows, STRUCTURE_BLOCK_ROWS):
        block = slice(start, start + STRUCTURE_BLOCK_ROWS)
        cols = np.stack([A.pos_col[block], A.neg_cols[block, 0], A.neg_cols[block, 1]])
        if cols.min() < 0 or cols.max() >= first.size:
            return False
        (p_lo, a_lo, b_lo), (p_hi, a_hi, b_hi) = first[cols], second[cols]
        apex = np.where((a_lo == b_lo) | (a_lo == b_hi), a_lo,
                        np.where((a_hi == b_lo) | (a_hi == b_hi), a_hi, -1))
        a_end, b_end = a_lo + a_hi - apex, b_lo + b_hi - apex
        triangle = ((apex >= 0) & (apex != p_lo) & (apex != p_hi)
                    & (np.minimum(a_end, b_end) == p_lo)
                    & (np.maximum(a_end, b_end) == p_hi))
        if not triangle.all():
            return False
        lo, hi = np.minimum(apex, p_lo), np.maximum(apex, p_hi)
        place = (apex > p_lo).astype(np.int64) + (apex > p_hi)
        seen[3 * _colex_rank(lo, p_lo + p_hi + apex - lo - hi, hi) + place] = True
    return bool(seen.all())


def _class_deviation(A: ConstraintMatrix) -> int:
    """max |(A^T A)[alpha, beta] - (3n-4) delta + |alpha & beta||, one beta per class.

    alpha = (1, 2); beta runs over alpha itself, (1, 3) and, from n = 4,
    (3, 4).  Each entry is read from the 3(n-2) rows that hold alpha.
    """
    n = A.n
    alpha = 0
    held = np.concatenate([np.flatnonzero(A.pos_col == alpha),
                           np.flatnonzero(A.neg_cols == alpha) // 2])
    cols = np.column_stack([A.pos_col[held], A.neg_cols[held]])
    signs = np.array([1, -1, -1])
    alpha_sign = (cols == alpha) @ signs
    classes = [(alpha, 2), (linear_index(1, 3, n) - 1, 1)]
    if n >= 4:
        classes.append((linear_index(3, 4, n) - 1, 0))
    return max(
        abs(int(alpha_sign @ ((cols == beta) @ signs))
            - (3 * n - 4) * (beta == alpha) + overlap)
        for beta, overlap in classes
    )


def constraint_gram_deviation(A: ConstraintMatrix) -> int:
    """max |A^T A + M M^T - (3n-4) I| over all L^2 entries, an exact integer.

    0 when the identity holds.  Lemma: when A's rows are exactly the
    triangle rows (:func:`_has_triangle_rows`), A^T A is the sum over
    vertex triples T of 4I - 11^T on T's three edges, since T's rows are
    2e_s - (e_1 + e_2 + e_3) in T's edge coordinates.  So an entry
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
