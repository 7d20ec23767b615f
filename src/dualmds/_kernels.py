"""The atom-sum expansion and the paper's amplification bound.

The module exists under this name because the benchmark traces both
functions here by module and name.  Deleting it waits for a change to
the benchmark alone that retires the ``kernels.*`` metrics; then
:func:`expand_kernel` moves next to its one caller in :mod:`dualmds.mds`
and :func:`amplification_kernel` into :mod:`dualmds.stability`.
"""

from __future__ import annotations

import numpy as np


def expand_kernel(coeffs: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  J: np.ndarray) -> np.ndarray:
    """Accumulate scaled rank-2 atoms into a dense n x n matrix.

    X = sum_t coeffs[t] * -1/2 (a_t b_t^T + b_t a_t^T) with a_t = J[:, rows[t]]
    and b_t = J[:, cols[t]].  The benchmark counts atoms from ``coeffs`` by
    that name.
    """
    A = J[:, rows] * coeffs
    B = J[:, cols]
    S = A @ B.T
    return -0.5 * (S + S.T)


def amplification_kernel(n: int) -> float:
    """The paper's bound max over (a, b) of sum over i < j of |J[a,i] J[j,b]|.

    Its value is (7n^2 - 21n + 16) / (2n^2), correctly rounded: Python
    integers and one true division.  Proof: let x be row a of |J| and y
    column b.  Each entry is c = 1/n, except d = 1 - 1/n at slot p = a
    of x and slot q = b of y.  With x = c 1 + (d - c) e_p and likewise y,

        sum_{i<j} x_i y_j = c^2 C(n,2) + c(d - c)[(n-1-p) + q]
                            + (d - c)^2 [p < q].

    As d >= c for n >= 2, each term is largest at p = 0, q = n - 1, where it
    equals (n-1)/(2n) + 2(n-1)(n-2)/n^2 + (n-2)^2/n^2, the form above.
    It tends to 7/2.
    """
    return (7 * n * n - 21 * n + 16) / (2 * n * n)
