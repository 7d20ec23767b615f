"""Triangle-inequality constraints on dissimilarity matrices.

A dissimilarity matrix holds plain (not squared) distances.  For every
vertex triple {i < j < k} there are three triangle inequalities, one per
choice of the "long" side; stacking their sign patterns over all triples
gives a sparse constraint matrix A with one +1 and two -1 entries per
row and one column per vertex pair.

The Gram matrix A^T A relates back to the atom Gram matrix H through the
exact integer identity A^T A = (3n-2) I - H, which pins A's singular
values to sqrt(3n-4), sqrt(2n-2) and sqrt(n-2).  Equivalently A^T A =
(3n-4) I - M M^T with M the pair-vertex incidence matrix; once that holds
exactly, the singular values are read off the n x n matrix M^T M, and
only otherwise is A^T A decomposed densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import basis_gram, integer_deviation, overlap_spectrum, pair_overlaps
from .errors import DomainError, ResourceLimitError
from .pairspace import PairIndex, linear_index, num_pairs, pair_arrays, validate_symmetric
from .spectral import spectrum_verdict, sym_eigvals

DENSE_ENTRY_CAP = 200_000_000
# Peak memory of `dualmds nearness` in L x L float64 arrays (8 L^2 bytes
# each), for the up-front refusal.  Measured peak RSS without --out: 211 MB
# at n = 80 and 898 MB at n = 120, a slope of 2.10 arrays; rounded up.
NEARNESS_PEAK_ARRAYS = 2.2


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
        self.triples = np.array(list(combinations(range(1, n + 1), 3)), dtype=np.int64)
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
        if self.num_rows * self.num_cols > DENSE_ENTRY_CAP:
            raise ResourceLimitError(
                f"dense constraint matrix for n={self.n} needs "
                f"{self.num_rows}x{self.num_cols} entries"
            )
        A = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        rows = np.arange(self.num_rows)
        A[rows, self.pos_col] = 1
        A[rows, self.neg_cols[:, 0]] = -1
        A[rows, self.neg_cols[:, 1]] = -1
        return A

    def triplets(self) -> np.ndarray:
        """All signed entries as rows (row, column, sign), 1-based, sorted.

        An int64 array of shape (3 * num_rows, 3), ordered by row, then
        column.
        """
        rows = np.repeat(np.arange(1, self.num_rows + 1), 3)
        cols = np.column_stack([self.pos_col, self.neg_cols]).ravel() + 1
        signs = np.tile(np.array([1, -1, -1], dtype=np.int64), self.num_rows)
        order = np.lexsort((cols, rows))
        return np.column_stack([rows, cols, signs])[order]

    def gram(self) -> np.ndarray:
        """A^T A, exact in int64.

        Entry (p, q) sums sign_a * sign_b over the slots a, b of every row
        with column p in slot a and column q in slot b.  Slot 0 holds the
        +1 and slots 1, 2 the -1s, so the five slot pairs (0,0), (1,1),
        (2,2), (1,2), (2,1) add 1 and the four (0,1), (0,2), (1,0), (2,0)
        subtract 1: two counts of the flat index p * L + q.
        """
        L = self.num_cols
        slots = (self.pos_col, self.neg_cols[:, 0], self.neg_cols[:, 1])

        def count(pairs):
            flat = np.concatenate([slots[a] * L + slots[b] for a, b in pairs])
            return np.bincount(flat, minlength=L * L)

        G = count(((0, 0), (1, 1), (2, 2), (1, 2), (2, 1)))
        G -= count(((0, 1), (0, 2), (1, 0), (2, 0)))
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


def gram_identity_check(n: int) -> tuple[bool, int]:
    """Verify A^T A = (3n-2) I - H in exact integer arithmetic.

    Returns (holds, maximum absolute integer deviation).  The diagonal of
    A^T A counts the nonzeros per column, 3(n-2).
    """
    deviation = integer_deviation(basis_gram(n).entries, constraint_gram(n), 1, 3 * n - 2)
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


def singular_value_verdict(n: int, gram: np.ndarray,
                           overlaps: np.ndarray | None = None
                           ) -> tuple[bool, list[tuple[float, int]]]:
    """Verdict on A's singular values, and their groups, from ``gram`` = A^T A.

    The singular values are the square roots of the eigenvalues of
    ``gram``, compared with :func:`predicted_singular_values` by
    :func:`~dualmds.spectral.spectrum_verdict`.  When A^T A = (3n-4) I -
    M M^T holds exactly, with ``overlaps`` = M M^T
    (:func:`~dualmds.basis.pair_overlaps`, built here when not given),
    they are sqrt(3n-4 - mu) over the eigenvalues mu of M M^T, which
    :func:`~dualmds.basis.overlap_spectrum` takes from the n x n matrix
    M^T M.  Otherwise ``gram`` is decomposed densely, so a failing
    report shows its actual spectrum.  ``verify`` and ``nearness``
    report the result under their own check names.
    """
    if overlaps is None:
        overlaps = pair_overlaps(n)
    if integer_deviation(gram, overlaps, 1, 3 * n - 4) == 0:
        eigenvalues = (3 * n - 4) - overlap_spectrum(n)[::-1]
    else:
        eigenvalues = sym_eigvals(gram.astype(float))
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
