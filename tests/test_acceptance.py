"""Acceptance gate: the closed-form claims the package is built on.

Each test is one criterion; ``pytest -v`` prints one pass/fail line per
criterion.  Expected values come from hand-checked fixtures and from the
independent brute-force oracles in ``oracles.py`` — never from the code
under test.
"""

import time
from fractions import Fraction

import numpy as np

from dualmds import (
    PairIndex,
    PointConfiguration,
    amplification_factor,
    basis_atom,
    basis_gram,
    constraint_gram,
    constraint_matrix,
    double_center,
    dual_atom,
    dual_atom_eigenpairs,
    dual_expansion,
    dual_gram_matrix,
    embed,
    gram_identity_check,
    group_spectrum,
    h_spectrum_predicted,
    linear_to_pair,
    noise_experiment,
    num_pairs,
    predicted_singular_values,
    procrustes_residual,
    squared_distances,
    sym_eig,
    triangular_graph_adjacency,
)
from dualmds._kernels import warm_up

import oracles

# ---------------------------------------------------------------------------
# frozen four-point fixtures (hand-checked, dyadic entries scaled to integers)

ATOM_12_N4 = np.array(
    [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
)
DUAL_12_N4_X16 = np.array(
    [[3, -5, 1, 1], [-5, 3, 1, 1], [1, 1, -1, -1], [1, 1, -1, -1]]
)
ATOM_GRAM_N4 = np.array(
    [
        [4, 1, 1, 1, 1, 0],
        [1, 4, 1, 1, 0, 1],
        [1, 1, 4, 0, 1, 1],
        [1, 1, 0, 4, 1, 1],
        [1, 0, 1, 1, 4, 1],
        [0, 1, 1, 1, 1, 4],
    ]
)
DUAL_GRAM_N4_X16 = np.array(
    [
        [5, -1, -1, -1, -1, 1],
        [-1, 5, -1, -1, 1, -1],
        [-1, -1, 5, 1, -1, -1],
        [-1, -1, 1, 5, -1, -1],
        [-1, 1, -1, -1, 5, -1],
        [1, -1, -1, -1, -1, 5],
    ]
)
KNOWN_CONSTRAINT_ROWS_N4 = {
    ((1, 2), 3): [1, -1, 0, -1, 0, 0],
    ((1, 3), 2): [-1, 1, 0, -1, 0, 0],
    ((2, 3), 1): [-1, -1, 0, 1, 0, 0],
    ((2, 3), 4): [0, 0, 0, 1, -1, -1],
}

# the paper's bound on the noise amplification at n=4, frozen from the
# exact rational brute force (both oracles in oracles.py agree)
AMPLIFICATION_BOUND_N4 = Fraction(11, 8)


def seeded_configurations(count=100):
    """The shared batch of random configurations for criteria 6 and 7."""
    configs = []
    for idx, child in enumerate(np.random.SeedSequence(2026).spawn(count)):
        n = 3 + idx % 10
        r = 1 + idx % min(3, n - 1)
        rng = np.random.default_rng(child)
        configs.append(PointConfiguration(rng.standard_normal((n, r))))
    return configs


def test_criterion_01_four_point_reference_objects():
    started = time.perf_counter()
    w = basis_atom(PairIndex(1, 2, 4)).entries
    v = dual_atom(PairIndex(1, 2, 4)).materialize()
    H = basis_gram(4).entries
    G = dual_gram_matrix(4)
    np.testing.assert_array_equal(w, ATOM_12_N4)
    np.testing.assert_array_equal(H, ATOM_GRAM_N4)
    assert np.max(np.abs(16.0 * v - DUAL_12_N4_X16)) <= 1e-12
    assert np.max(np.abs(16.0 * G - DUAL_GRAM_N4_X16)) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_02_gram_spectrum_three_eigenvalues():
    started = time.perf_counter()
    for n in range(3, 13):
        vals, _ = sym_eig(basis_gram(n).entries)
        observed = group_spectrum(vals, rel_tol=1e-8)
        expected = sorted(h_spectrum_predicted(n), key=lambda g: -g[0])
        assert len(observed.groups) == len(expected), f"n={n}"
        for (rep, mult), (val, target_mult) in zip(observed.groups, expected):
            assert mult == target_mult, f"n={n}: eigenvalue {val}"
            assert abs(rep - val) <= 1e-8 * max(1.0, abs(val)), f"n={n}"
    assert time.perf_counter() - started < 60.0


def test_criterion_03_triangular_graph_decomposition():
    for n in range(3, 16):
        H = np.rint(basis_gram(n).entries).astype(np.int64)
        A = np.rint(triangular_graph_adjacency(n)).astype(np.int64)
        L = num_pairs(n)
        assert np.array_equal(H, 4 * np.eye(L, dtype=np.int64) + A), f"n={n}"


def test_criterion_04_biorthogonality_exhaustive():
    for n in range(3, 11):
        L = num_pairs(n)
        pairs = [linear_to_pair(k, n) for k in range(1, L + 1)]
        atoms = [basis_atom(p).entries for p in pairs]
        duals = [dual_atom(p).materialize() for p in pairs]
        for a in range(L):
            for b in range(L):
                inner = float(np.sum(duals[a] * atoms[b]))
                target = 1.0 if a == b else 0.0
                assert abs(inner - target) <= 1e-12, f"n={n}, pair {a},{b}"


def test_criterion_05_dual_atom_rank_two_spectrum():
    for n in range(3, 13):
        for k in range(1, num_pairs(n) + 1):
            alpha = linear_to_pair(k, n)
            V = dual_atom(alpha).materialize()
            vals, vecs = sym_eig(V)
            nonzero = np.abs(vals) > 1e-10
            assert int(np.count_nonzero(nonzero)) == 2, f"n={n}, {alpha}"
            lam_pos = float(np.max(vals))
            lam_neg = float(np.min(vals))
            assert abs(lam_pos - 0.5) <= 1e-10, f"n={n}"
            assert abs(lam_neg - (-0.5 + 1.0 / n)) <= 1e-10, f"n={n}"
            (pred_pos, u_pos), (pred_neg, u_neg) = dual_atom_eigenpairs(alpha)
            vec_pos = vecs[:, 0]
            vec_neg = vecs[:, n - 1]
            for vec, u in ((vec_pos, u_pos), (vec_neg, u_neg)):
                cos = abs(float(vec @ u)) / float(np.linalg.norm(u))
                assert cos >= 1.0 - 1e-10, f"n={n}: eigenvector not parallel"


def test_criterion_06_expansion_equals_double_centering():
    for P in seeded_configurations():
        D = squared_distances(P)
        gap = dual_expansion(D).entries - double_center(D).entries
        scale = max(1.0, float(np.max(np.abs(D.entries))))
        assert np.max(np.abs(gap)) <= 1e-10 * scale, f"n={P.n}, r={P.r}"


def test_criterion_07_embedding_round_trip():
    for P in seeded_configurations():
        result = embed(squared_distances(P), r=P.r)
        residual = procrustes_residual(result.points, P)
        assert residual <= 1e-7 * float(np.linalg.norm(P.points)), \
            f"n={P.n}, r={P.r}"


def test_criterion_08_noise_amplification_bound():
    warm_up()
    started = time.perf_counter()
    for n in range(2, 201):
        assert amplification_factor(n) < 4.0, f"n={n}"
    # the paper's bound at n=4, pinned by two independent oracles
    oracle_float = oracles.amplification_enumerated(4)
    oracle_exact = oracles.amplification_exact(4)
    assert oracle_exact == AMPLIFICATION_BOUND_N4
    assert oracle_float == float(AMPLIFICATION_BOUND_N4)
    assert amplification_factor(4) == float(AMPLIFICATION_BOUND_N4)
    for n in (4, 8, 16):
        report = noise_experiment(n=n, r=2, epsilon=0.01, trials=1000, seed=n)
        assert report.max_ratio <= report.factor + 1e-12, f"n={n}"
        assert report.max_ratio < 4.0, f"n={n}"
        assert report.passed, f"n={n}"
    assert time.perf_counter() - started < 60.0


def test_criterion_09_constraint_gram_integer_identity():
    for n in range(3, 26):
        holds, deviation = gram_identity_check(n)
        assert holds and deviation == 0, f"n={n}: deviation {deviation}"
        np.testing.assert_array_equal(np.diag(constraint_gram(n)), 3 * (n - 2))


def test_criterion_10_constraint_singular_values():
    for n in range(3, 13):
        A = constraint_matrix(n).to_dense().astype(float)
        observed = np.linalg.svd(A, compute_uv=False)
        groups = predicted_singular_values(n)
        # multiplicities (n(n-3)/2, n-1, 1); the middle one is n-1
        assert [m for _, m in groups] == \
            [g for g in (n * (n - 3) // 2, n - 1, 1) if g > 0], f"n={n}"
        expected = np.concatenate([np.full(m, v) for v, m in groups])
        assert observed.shape == expected.shape, f"n={n}"
        assert np.all(np.abs(observed - expected) <= 1e-8 * expected), f"n={n}"


def test_criterion_11_labeled_constraint_rows():
    A = constraint_matrix(4)
    dense = A.to_dense()
    for (pos, apex), pattern in KNOWN_CONSTRAINT_ROWS_N4.items():
        row = A.row_of(PairIndex(*pos, 4), apex)
        np.testing.assert_array_equal(dense[row - 1], pattern)
