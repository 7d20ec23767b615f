"""Deterministic symmetric eigendecomposition with multiplicity grouping.

Every spectrum check in the package goes through this module so that
eigenvalue ordering and eigenvector signs are fixed once, here, and
golden tests stay stable across runs.  Checks that need eigenvectors
call :func:`sym_eig`; spectrum checks that need no vectors call
:func:`sym_eigvals`, which skips computing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

DEFAULT_GROUP_TOL = 1e-8
SYM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues grouped into (representative, multiplicity) clusters.

    ``groups`` lists representatives in strictly decreasing order; the
    multiplicities sum to the matrix dimension.  ``raw`` keeps the
    ungrouped eigenvalues, sorted descending.
    """

    groups: tuple[tuple[float, int], ...]
    raw: np.ndarray
    rel_tol: float = field(default=DEFAULT_GROUP_TOL)

    def __post_init__(self):
        total = sum(m for _, m in self.groups)
        if total != self.raw.shape[0]:
            raise DomainError(
                f"group multiplicities sum to {total}, expected {self.raw.shape[0]}"
            )
        reps = [v for v, _ in self.groups]
        if any(hi <= lo for hi, lo in zip(reps, reps[1:])):
            raise DomainError("group representatives must be strictly decreasing")
        self.raw.setflags(write=False)

    def multiplicity_of(self, value: float, tol: float = 1e-6) -> int:
        """Multiplicity of the group whose representative is nearest ``value``."""
        for rep, mult in self.groups:
            if abs(rep - value) <= tol * max(1.0, abs(value)):
                return mult
        return 0


def sym_eig(M: np.ndarray, sym_tol: float | None = SYM_TOL
            ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, descending, sign-fixed.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as columns.  Each eigenvector is
    normalized so its largest-magnitude component is positive (ties
    resolved toward the lowest index), which makes the output a pure
    function of the input matrix.  ``sym_tol=None`` skips the symmetry
    scan, for a float array the caller built symmetric up to roundoff;
    LAPACK reads the lower triangle only, so the result is the same.
    """
    vals, vecs = np.linalg.eigh(M if sym_tol is None else _symmetric(M, sym_tol))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    _normalize_signs(vecs)
    return vals, vecs


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, without eigenvectors.

    Validates as :func:`sym_eig` does at its default ``SYM_TOL``.
    LAPACK computes the values alone by a different route than together
    with the vectors, so they may differ from ``sym_eig(M)[0]`` in the
    last bits.
    """
    return np.linalg.eigvalsh(_symmetric(M, SYM_TOL))[::-1].copy()


def _symmetric(M, sym_tol: float) -> np.ndarray:
    """``M`` as a float array; raises unless square and symmetric within sym_tol."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if M.size and float(np.max(np.abs(M - M.T))) > sym_tol:
        raise DomainError(
            f"matrix not symmetric within {sym_tol:.1e}: "
            f"max |M - M^T| = {float(np.max(np.abs(M - M.T))):.3e}"
        )
    return M


def _normalize_signs(vecs: np.ndarray) -> None:
    """Negate, in place, each column whose largest-magnitude entry is negative.

    ``argmax`` returns the first maximum, so among entries of equal
    magnitude the lowest index decides.
    """
    if vecs.size:
        lead = np.argmax(np.abs(vecs), axis=0)
        flip = vecs[lead, np.arange(vecs.shape[1])] < 0
        vecs[:, flip] = -vecs[:, flip]


def group_spectrum(eigenvalues, rel_tol: float = DEFAULT_GROUP_TOL) -> SpectrumReport:
    """Cluster a descending eigenvalue list into multiplicity groups.

    Adjacent values v, v' are merged when |v - v'| <= rel_tol * max(1, |v|);
    each group is represented by its mean.
    """
    vals = np.asarray(eigenvalues, dtype=float).ravel()
    if vals.size == 0:
        return SpectrumReport(groups=(), raw=vals.copy(), rel_tol=rel_tol)
    if np.any(np.diff(vals) > 0):
        raise DomainError("eigenvalues must be sorted in descending order")
    groups: list[tuple[float, int]] = []
    start = 0
    for k in range(1, vals.size + 1):
        if k == vals.size or abs(vals[k - 1] - vals[k]) > rel_tol * max(1.0, abs(vals[k - 1])):
            block = vals[start:k]
            groups.append((float(block.mean()), int(block.size)))
            start = k
    return SpectrumReport(groups=tuple(groups), raw=vals.copy(), rel_tol=rel_tol)


def spectrum_verdict(eigenvalues, expected) -> tuple[bool, list[tuple[float, int]]]:
    """Group descending eigenvalues and compare the groups with a prediction.

    ``expected`` lists (value, multiplicity) in descending order.  The
    verdict holds when there are as many groups as predicted and each
    has the predicted multiplicity and, within DEFAULT_GROUP_TOL times
    max(1, |value|), the predicted value.  Returned with it are the
    observed groups, representatives rounded to 9 digits as the reports
    print them.
    """
    observed = group_spectrum(eigenvalues)
    ok = len(observed.groups) == len(expected) and all(
        mult == em and abs(rep - ev) <= DEFAULT_GROUP_TOL * max(1.0, abs(ev))
        for (rep, mult), (ev, em) in zip(observed.groups, expected)
    )
    return ok, [(round(r, 9), m) for r, m in observed.groups]
