"""Numeric kernels with a compiled and a vectorized implementation each.

Two hot paths get a dual implementation: coefficient expansion (summing
scaled rank-2 atoms into an n x n matrix, O(L n^2) work) and the noise
amplification factor (a prefix-sum reduction over centering-matrix
entries, O(n^3) work).

Backend selection is controlled by the environment variable
``DUALMDS_BACKEND``:

* ``auto`` (default) - use the numba-compiled kernels when numba imports,
  else fall back to pure numpy;
* ``numba`` - require the compiled kernels, error if numba is missing;
* ``numpy`` - force the vectorized fallback.

Both implementations of a kernel compute the same sum term-for-term;
they may differ by floating-point accumulation order only.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None
    HAS_NUMBA = False

BACKEND_ENV_VAR = "DUALMDS_BACKEND"
_VALID_BACKENDS = ("auto", "numba", "numpy")


def active_backend(override: str | None = None) -> str:
    """Resolve the backend name to use: ``"numba"`` or ``"numpy"``.

    ``override`` takes precedence over the environment variable; both
    accept ``auto``/``numba``/``numpy``.
    """
    raw = override if override is not None else os.environ.get(BACKEND_ENV_VAR, "auto")
    choice = raw.strip().lower()
    if choice not in _VALID_BACKENDS:
        raise DomainError(
            f"unrecognized backend {raw!r}: expected one of {', '.join(_VALID_BACKENDS)}"
        )
    if choice == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    if choice == "numba" and not HAS_NUMBA:
        raise DomainError("backend 'numba' requested but numba is not importable")
    return choice


# ---------------------------------------------------------------------------
# coefficient expansion: X = sum_t coeffs[t] * (-1/2)(a_t b_t^T + b_t a_t^T)
# with a_t = J[:, rows[t]], b_t = J[:, cols[t]]
# ---------------------------------------------------------------------------


def _expand_numpy(coeffs: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  J: np.ndarray) -> np.ndarray:
    A = J[:, rows] * coeffs
    B = J[:, cols]
    S = A @ B.T
    return -0.5 * (S + S.T)


def _expand_python(coeffs, rows, cols, J):
    n = J.shape[0]
    X = np.zeros((n, n))
    for t in range(coeffs.shape[0]):
        c = -0.5 * coeffs[t]
        i = rows[t]
        j = cols[t]
        for p in range(n):
            a_p = J[p, i]
            b_p = J[p, j]
            for q in range(n):
                X[p, q] += c * (a_p * J[q, j] + b_p * J[q, i])
    return X


# ---------------------------------------------------------------------------
# amplification factor: max over (a, b) of
#   sum over index pairs i < j of |J[a, i]| * |J[j, b]|
# Rewriting the pair sum with an exclusive prefix over i gives
#   S(a, b) = sum_j prefix_a(j) * |J[j, b]|,   prefix_a(j) = sum_{i<j} |J[a, i]|
# which is an O(n^3) reduction instead of the literal O(n^4) enumeration.
# ---------------------------------------------------------------------------


def _amplification_numpy(absJ: np.ndarray) -> float:
    prefix = np.cumsum(absJ, axis=1) - absJ
    return float((prefix @ absJ).max())


def _amplification_python(absJ):
    n = absJ.shape[0]
    best = 0.0
    prefix = np.empty(n)
    for a in range(n):
        acc = 0.0
        for j in range(n):
            prefix[j] = acc
            acc += absJ[a, j]
        for b in range(n):
            s = 0.0
            for j in range(n):
                s += prefix[j] * absJ[j, b]
            if s > best:
                best = s
    return best


if HAS_NUMBA:
    _expand_numba = njit(cache=True)(_expand_python)
    _amplification_numba = njit(cache=True)(_amplification_python)
else:  # pragma: no cover - exercised only without numba
    _expand_numba = None
    _amplification_numba = None


def expand_kernel(coeffs: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  J: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Accumulate scaled rank-2 atoms into a dense n x n matrix."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    J = np.ascontiguousarray(J, dtype=np.float64)
    if active_backend(backend) == "numba":
        return _expand_numba(coeffs, rows, cols, J)
    return _expand_numpy(coeffs, rows, cols, J)


def amplification_kernel(J: np.ndarray, backend: str | None = None) -> float:
    """The paper's bound on the entrywise amplification, from J entries."""
    absJ = np.ascontiguousarray(np.abs(J), dtype=np.float64)
    if active_backend(backend) == "numba":
        return float(_amplification_numba(absJ))
    return _amplification_numpy(absJ)


def warm_up() -> None:
    """Trigger JIT compilation of the compiled kernels, if present."""
    if not HAS_NUMBA:
        return
    J = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    rows = np.array([0, 0, 1], dtype=np.int64)
    cols = np.array([1, 2, 2], dtype=np.int64)
    _expand_numba(np.ones(3), rows, cols, J)
    _amplification_numba(np.abs(J))
