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
    """Literal O(n^4) evaluation of the worst-case amplification.

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
    """Exact-rational worst-case amplification (no floating point at all)."""
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
