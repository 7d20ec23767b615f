"""Independent brute-force implementations used as test oracles.

Everything here is written from first principles against the package's
documented behavior -- no imports from dualmds -- so agreement between
the two is evidence, not tautology.  Exact-rational variants use
Fraction to rule out float effects where values are frozen.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def centering(n: int) -> np.ndarray:
    return np.eye(n) - np.ones((n, n)) / n


def centering_exact(n: int) -> list[list[Fraction]]:
    diag = Fraction(n - 1, n)
    off = Fraction(-1, n)
    return [[diag if a == b else off for b in range(n)] for a in range(n)]


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """All 1-based pairs (i, j), i < j, in lexicographic order."""
    return list(combinations(range(1, n + 1), 2))


def atom_matrix(i: int, j: int, n: int) -> np.ndarray:
    W = np.zeros((n, n))
    W[i - 1, i - 1] = W[j - 1, j - 1] = 1.0
    W[i - 1, j - 1] = W[j - 1, i - 1] = -1.0
    return W


def dual_matrix(i: int, j: int, n: int) -> np.ndarray:
    J = centering(n)
    a = J[:, i - 1]
    b = J[:, j - 1]
    return -0.5 * (np.outer(a, b) + np.outer(b, a))


def gram_by_traces(n: int) -> np.ndarray:
    """Atom Gram matrix assembled entry by entry from trace inner products."""
    prs = lex_pairs(n)
    L = len(prs)
    H = np.zeros((L, L))
    for a, (i1, j1) in enumerate(prs):
        Wa = atom_matrix(i1, j1, n)
        for b, (i2, j2) in enumerate(prs):
            H[a, b] = np.trace(Wa.T @ atom_matrix(i2, j2, n))
    return H


def dual_gram_by_traces(n: int) -> np.ndarray:
    """Gram matrix of the dual family from trace inner products."""
    prs = lex_pairs(n)
    L = len(prs)
    G = np.zeros((L, L))
    mats = [dual_matrix(i, j, n) for i, j in prs]
    for a in range(L):
        for b in range(L):
            G[a, b] = np.trace(mats[a].T @ mats[b])
    return G


def double_center_brute(D: np.ndarray) -> np.ndarray:
    n = D.shape[0]
    J = centering(n)
    return -0.5 * (J @ D @ J)


def amplification_enumerated(n: int, swapped: bool = False) -> float:
    """Literal O(n^4) evaluation of the paper's amplification bound.

    The ``swapped`` variant exchanges the roles of i and j inside the
    absolute product; by the symmetry of the centering matrix it must
    give the identical maximum.
    """
    J = centering(n)
    best = 0.0
    for a in range(n):
        for b in range(n):
            s = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    if swapped:
                        s += abs(J[a, j] * J[i, b])
                    else:
                        s += abs(J[a, i] * J[j, b])
            best = max(best, s)
    return best


def amplification_exact(n: int) -> Fraction:
    """The paper's amplification bound in exact rationals (no floating point)."""
    J = centering_exact(n)
    best = Fraction(0)
    for a in range(n):
        for b in range(n):
            s = Fraction(0)
            for i in range(n):
                for j in range(i + 1, n):
                    s += abs(J[a][i] * J[j][b])
            if s > best:
                best = s
    return best


def attained_amplification_exact(n: int) -> Fraction:
    """Exact-rational true worst case of the Gram perturbation per unit noise.

    The perturbation at (a, b) is -1/2 sum over pairs i < j of
    e_ij (J[a,i] J[j,b] + J[a,j] J[i,b]); over |e_ij| <= 1 its largest
    magnitude is half the sum of the absolute coefficients, maximized
    here over every position (a, b) by enumeration.
    """
    J = centering_exact(n)
    best = Fraction(0)
    for a in range(n):
        for b in range(n):
            s = Fraction(0)
            for i, j in combinations(range(n), 2):
                s += abs(J[a][i] * J[j][b] + J[a][j] * J[i][b])
            best = max(best, s / 2)
    return best


def double_centered_exact(E: list[list[Fraction]]) -> list[list[Fraction]]:
    """-1/2 J E J by two exact-rational matrix products."""
    n = len(E)
    J = centering_exact(n)
    JE = [[sum(J[a][k] * E[k][b] for k in range(n)) for b in range(n)]
          for a in range(n)]
    return [[-sum(JE[a][k] * J[k][b] for k in range(n)) / 2 for b in range(n)]
            for a in range(n)]


def constraint_dense(n: int) -> np.ndarray:
    """Dense triangle-constraint matrix built straight from the definition."""
    prs = lex_pairs(n)
    col = {p: k for k, p in enumerate(prs)}
    rows = []
    for i, j, k in combinations(range(1, n + 1), 3):
        for positive in ((i, j), (i, k), (j, k)):
            row = np.zeros(len(prs))
            for edge in ((i, j), (i, k), (j, k)):
                row[col[edge]] = 1.0 if edge == positive else -1.0
            rows.append(row)
    return np.array(rows)


def biorthogonality_deviation(n: int) -> float:
    """max |<v_alpha, w_beta> - delta| by the literal double loop over pairs.

    <v_alpha, w_beta> is read off the dense dual matrix at beta = (i, j) as
    V[i,i] + V[j,j] - 2 V[i,j], the trace inner product with the atom.
    """
    prs = lex_pairs(n)
    worst = 0.0
    for a, (i1, j1) in enumerate(prs):
        V = dual_matrix(i1, j1, n)
        for b, (i2, j2) in enumerate(prs):
            inner = (
                V[i2 - 1, i2 - 1]
                + V[j2 - 1, j2 - 1]
                - 2.0 * V[i2 - 1, j2 - 1]
            )
            worst = max(worst, abs(inner - (1.0 if a == b else 0.0)))
    return float(worst)


def triangular_adjacency_by_sets(n: int) -> np.ndarray:
    """Pairs adjacent iff their vertex sets intersect in exactly one vertex."""
    prs = lex_pairs(n)
    A = np.zeros((len(prs), len(prs)), dtype=np.int64)
    for p, e in enumerate(prs):
        for q, f in enumerate(prs):
            if len(set(e) & set(f)) == 1:
                A[p, q] = 1
    return A


def normalize_signs_by_columns(vecs: np.ndarray) -> np.ndarray:
    """Column by column: negate a column whose largest-magnitude entry is negative.

    Ties between entries of equal magnitude go to the lowest index.
    Returns a new array.
    """
    out = np.array(vecs, dtype=float)
    for k in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, k])))
        if out[lead, k] < 0:
            out[:, k] = -out[:, k]
    return out


def _constraint_rows(n: int) -> list[tuple[list[int], list[int]]]:
    """Per constraint row, in row order: its 0-based columns and their signs.

    Triples in lexicographic order, three rows each, the positive edge
    cycling through (i,j), (i,k), (j,k).
    """
    col = {p: k for k, p in enumerate(lex_pairs(n))}
    rows = []
    for i, j, k in combinations(range(1, n + 1), 3):
        edges = ((i, j), (i, k), (j, k))
        for positive in edges:
            rows.append(([col[e] for e in edges],
                         [1 if e == positive else -1 for e in edges]))
    return rows


def constraint_gram_by_scatter(n: int) -> np.ndarray:
    """A^T A in int64 by scattering sign products of every slot pair (np.add.at)."""
    rows = _constraint_rows(n)
    cols = np.array([c for c, _ in rows], dtype=np.int64)
    signs = np.array([s for _, s in rows], dtype=np.int64)
    L = len(lex_pairs(n))
    G = np.zeros((L, L), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            np.add.at(G, (cols[:, a], cols[:, b]), signs[:, a] * signs[:, b])
    return G


def constraint_triplets_by_rows(n: int) -> list[tuple[int, int, int]]:
    """(row, column, sign), 1-based, by a loop over rows, each sorted by column."""
    out = []
    for t, (cols, signs) in enumerate(_constraint_rows(n)):
        out.extend((t + 1, c + 1, s) for c, s in sorted(zip(cols, signs)))
    return out


def dual_factors_from_centering(i: int, j: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The factors of the dual atom at (i, j): columns i and j of I - (1/n) 11^T."""
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    return J[:, i - 1].copy(), J[:, j - 1].copy()


def dual_gram_by_gathers(n: int, rows=None) -> np.ndarray:
    """Dual Gram matrix from four gathers of the centering matrix's entries.

    Entry (alpha, beta) with alpha = (i, j), beta = (k, l) is
    (J[i,k] J[j,l] + J[i,l] J[j,k]) / 2: the dyadic-factor formula, the
    dot products of J's columns being J's own entries.  ``rows`` selects
    0-based row positions alpha (all when None), so large n can be
    compared a block at a time.
    """
    J = centering(n)
    prs = np.array(lex_pairs(n)) - 1
    r, c = prs[:, 0], prs[:, 1]
    sel = np.arange(len(prs)) if rows is None else np.asarray(rows)
    ri, ci = r[sel], c[sel]
    return 0.5 * (
        J[np.ix_(ri, r)] * J[np.ix_(ci, c)] + J[np.ix_(ri, c)] * J[np.ix_(ci, r)]
    )


def pair_overlaps_by_sets(n: int) -> np.ndarray:
    """Number of vertices two pairs share, |e & f|, for every pair of pairs."""
    prs = lex_pairs(n)
    return np.array([[len(set(e) & set(f)) for f in prs] for e in prs],
                    dtype=np.int64)
