"""One validator, one scale-relative tolerance, for every symmetric matrix.

``SquaredDistanceMatrix``, ``GramMatrix``, ``NoiseMatrix``,
``DissimilarityMatrix``, ``sym_eig`` and ``sym_eigvals`` all check their
input with ``pairspace.validate_symmetric``, against ``REL_TOL`` times the
largest |entry|.  So each rejects the same defects at every scale, and
rescaling the distances D -> sD changes no verdict: not the validity, not
the Euclidean test, not the detected rank, not the exit code of ``embed``.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmds import (
    DissimilarityMatrix,
    DomainError,
    GramMatrix,
    NoiseMatrix,
    PointConfiguration,
    SquaredDistanceMatrix,
    double_center,
    dual_expansion,
    embed,
    is_euclidean,
    squared_distances,
    sym_eig,
    write_matrix_csv,
)
from dualmds.cli import main
from dualmds.mds import CERTIFIED_MIN_N
from dualmds.pairspace import REL_TOL
from dualmds.spectral import sym_eigvals

SCALES = [1e-12, 1.0, 1e12]
# the README's non-Euclidean example: lambda_min / lambda_max = -0.185
README_D2 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])


def seeded_distances(n, r, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return squared_distances(PointConfiguration(scale * rng.standard_normal((n, r))))


BASE_D = seeded_distances(6, 2, 0).entries
BASE_G = double_center(SquaredDistanceMatrix(BASE_D)).entries

# entry point -> (constructor, valid input at scale 1, name in its messages)
ENTRY_POINTS = {
    "SquaredDistanceMatrix": (SquaredDistanceMatrix, BASE_D, "squared-distance matrix"),
    "GramMatrix": (GramMatrix, BASE_G, "Gram matrix"),
    "NoiseMatrix": (NoiseMatrix, BASE_D, "noise matrix"),
    "DissimilarityMatrix": (DissimilarityMatrix, BASE_D, "dissimilarity matrix"),
    "sym_eig": (sym_eig, BASE_G, "matrix"),
    "sym_eigvals": (sym_eigvals, BASE_G, "matrix"),
}


def _with(E, value, *cells):
    E = E.copy()
    for cell in cells:
        E[cell] = value
    return E


# defect -> (how to apply it to E with m = max |E|, what the message says)
DEFECTS = {
    "non-square": (lambda E, m: E[:, :-1], "must be a square matrix"),
    "nan": (lambda E, m: _with(E, np.nan, (0, 1), (1, 0)), "non-finite"),
    "inf": (lambda E, m: _with(E, np.inf, (0, 1), (1, 0)), "non-finite"),
    "asymmetric": (lambda E, m: _with(E, E[0, 1] + 1e-6 * m, (0, 1)), "not symmetric"),
    "non-hollow": (lambda E, m: _with(E, 1e-6 * m, (0, 0)), "diagonal not zero"),
    "negative": (lambda E, m: _with(E, -1e-6 * m, (0, 1), (1, 0)), "negative entry"),
    "uncentered": (lambda E, m: E + 1e-6 * m * np.eye(E.shape[0]), "not zero-centered"),
}
COMMON = ["non-square", "nan", "inf", "asymmetric"]
APPLIES = {
    "SquaredDistanceMatrix": COMMON + ["non-hollow", "negative"],
    "GramMatrix": COMMON + ["uncentered"],
    "NoiseMatrix": COMMON + ["non-hollow"],
    "DissimilarityMatrix": COMMON + ["non-hollow", "negative"],
    "sym_eig": COMMON,
    "sym_eigvals": COMMON,
}
REJECTIONS = [
    pytest.param(kind, defect, scale, id=f"{kind}-{defect}-{scale:g}")
    for kind in ENTRY_POINTS for defect in APPLIES[kind] for scale in SCALES
]


@pytest.mark.parametrize("kind,defect,scale", REJECTIONS)
def test_every_entry_point_rejects_each_defect_at_every_scale(kind, defect, scale):
    build, base, name = ENTRY_POINTS[kind]
    apply, message = DEFECTS[defect]
    E = scale * base
    with pytest.raises(DomainError, match=f"^{name} .*{message}"):
        build(apply(E, float(np.max(np.abs(E)))))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("kind", sorted(ENTRY_POINTS))
def test_every_entry_point_accepts_roundoff_at_every_scale(kind, scale):
    build, base, _ = ENTRY_POINTS[kind]
    E = scale * base
    build(E)
    # an asymmetry far inside REL_TOL of max |E|, whatever the units
    E[0, 1] += 1e-2 * REL_TOL * float(np.max(np.abs(E)))
    build(E)


class TestLargeCoordinates:
    """-1/2 J D J at coordinates around 1e5 is asymmetric by ~6e-5 in roundoff."""

    def test_double_center_returns_a_gram_matrix(self):
        D = seeded_distances(50, 2, 50, scale=1e5)
        assert isinstance(double_center(D), GramMatrix)

    def test_dual_expansion_returns_a_gram_matrix(self):
        D = seeded_distances(50, 2, 50, scale=1e5)
        assert isinstance(dual_expansion(D), GramMatrix)


def _outcome(entries):
    """(valid, Euclidean, detected rank, exit code of ``dualmds embed``) for D."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dist.csv"
        write_matrix_csv(path, entries)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["embed", str(path)])
    try:
        D = SquaredDistanceMatrix(entries)
    except DomainError:
        return False, None, None, code
    euclidean, _ = is_euclidean(D)
    rank = embed(D).rank if euclidean else None
    return True, euclidean, rank, code


def _asymmetric(D):
    E = D.copy()
    E[0, 1] += 1e-6 * float(E.max())
    return E


SCALE_CASES = {
    "points-n8-r2": seeded_distances(8, 2, 1).entries,
    "points-n12-r3": seeded_distances(12, 3, 2).entries,
    "readme-non-euclidean": README_D2,
    "asymmetric": _asymmetric(seeded_distances(7, 2, 3).entries),
}


@functools.cache
def unscaled(name):
    return _outcome(SCALE_CASES[name])


def test_unscaled_outcomes():
    assert {name: unscaled(name) for name in SCALE_CASES} == {
        "points-n8-r2": (True, True, 2, 0),
        "points-n12-r3": (True, True, 3, 0),
        "readme-non-euclidean": (True, False, None, 2),
        "asymmetric": (False, None, None, 3),
    }


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SCALE_CASES)), exponent=st.floats(-12.0, 12.0))
def test_rescaling_changes_no_verdict(name, exponent):
    scaled = 10.0 ** exponent * SCALE_CASES[name]
    assert _outcome(scaled) == unscaled(name)


@pytest.mark.parametrize("scale", SCALES)
def test_certified_route_is_scale_free(scale):
    D = seeded_distances(CERTIFIED_MIN_N, 3, 4)
    result = embed(SquaredDistanceMatrix(scale * D.entries))
    assert (result.route, result.rank) == ("certified", 3)
