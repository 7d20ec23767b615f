"""How additive distance noise propagates through the atom expansion.

Perturbing the squared distances by a symmetric hollow noise matrix E
perturbs the Gram matrix linearly, by exactly -1/2 J E J whatever the
distances (Sibson 1979).  Two numbers describe the entrywise blow-up
over all noise patterns of unit sup-norm, both explicit in the
centering-matrix entries:

* :func:`amplification_factor`, the paper's quantity, is an upper bound;
  it is (7n^2 - 21n + 16) / (2n^2), below 7/2;
* :func:`attained_amplification` is the true worst case, which the sign
  pattern :func:`worst_case_noise` reaches; it stays below 2.

:func:`noise_experiment` drives seeded random trials and that
adversarial pattern against both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import amplification_kernel
from .errors import DomainError
from .mds import center_by_means, expand_coefficients
from .pairspace import GramMatrix, SquaredDistanceMatrix, pair_arrays, validate_symmetric

NOISE_BOUND = 4.0


@dataclass(frozen=True, eq=False)
class NoiseMatrix:
    """Symmetric hollow perturbation of a squared-distance matrix.

    Entries may be negative; noisy distances are allowed to leave the
    cone of true squared distances.
    """

    entries: np.ndarray

    def __post_init__(self):
        E = validate_symmetric(np.array(self.entries, dtype=float), "noise matrix",
                               hollow=True)
        E.setflags(write=False)
        object.__setattr__(self, "entries", E)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.entries.size else 0.0


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a batch of noise trials at one problem size.

    ``max_ratio`` is the largest ‖Gram perturbation‖_sup over
    ‖distance noise‖_sup among the random trials; it can never exceed
    ``attained``, the true worst case for this n, which the adversarial
    trial reaches as ``adversarial_ratio``.  ``factor`` is the paper's
    upper bound on that worst case, below 7/2 and so below ``bound``.
    """

    n: int
    trials: int
    max_ratio: float
    factor: float
    bound: float
    attained: float
    adversarial_ratio: float
    passed: bool


def amplification_factor(n: int) -> float:
    """The paper's upper bound on the sup-norm amplification at size n.

    The maximum over all matrix positions (a, b) of the sum, over vertex
    pairs i < j, of |J[a,i] * J[j,b]| with J the centering matrix, which
    is (7n^2 - 21n + 16) / (2n^2), correctly rounded (derived in
    :func:`~dualmds._kernels.amplification_kernel`).  It is below 7/2.
    It bounds :func:`attained_amplification` from above and equals it
    only at n=2.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    return amplification_kernel(n)


def attained_amplification(n: int) -> float:
    """True worst-case sup-norm amplification at size n, in closed form.

    The Gram perturbation is X[a,b] = -1/2 sum over pairs i < j of
    e_ij (J[a,i] J[j,b] + J[a,j] J[i,b]), so the worst case over noise of
    unit sup-norm is the maximum over (a, b) of half the sum of the
    absolute coefficients.  Off the diagonal (a != b) that sum is
    (4n^2 - 15n + 16) / (2n^2), on it (n-1)(3n-4) / (2n^2); the two
    differ by (n-2)(n-6) / (2n^2), so the diagonal wins for 3 <= n <= 5,
    they tie at n = 2 and 6, and the limit is 2.  :func:`worst_case_noise`
    attains it.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    off_diagonal = (4 * n * n - 15 * n + 16) / (2 * n * n)
    diagonal = (n - 1) * (3 * n - 4) / (2 * n * n)
    return max(off_diagonal, diagonal)


def worst_case_noise(n: int) -> NoiseMatrix:
    """A unit sign pattern whose Gram perturbation attains the worst case.

    Each e_ij takes the sign of its coefficient at the maximizing
    position.  For n >= 6 that is (a, b) = (1, 2): +1 on the pair (1, 2),
    -1 on the pairs sharing exactly one vertex with it, +1 on the
    disjoint pairs.  For n <= 5 it is a = b = 1: -1 on the pairs that
    contain vertex 1, +1 elsewhere.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got n={n}")
    # in both cases the -1 pairs are those with exactly one anchor vertex
    anchor = (np.arange(n) < (2 if n >= 6 else 1)).astype(int)
    E = np.where(anchor[:, None] + anchor[None, :] == 1, -1.0, 1.0)
    np.fill_diagonal(E, 0.0)
    return NoiseMatrix(E)


def gram_perturbation(noise: NoiseMatrix) -> np.ndarray:
    """The Gram perturbation -1/2 J E J, by row means and the grand mean.

    Computed by :func:`~dualmds.mds.center_by_means` in O(n^2), against
    O(n^4) for the atom sum of :func:`perturbed_gram` minus the clean
    expansion, which gives the same matrix up to roundoff.
    """
    return center_by_means(noise.entries)


def perturbed_gram(D: SquaredDistanceMatrix, noise: NoiseMatrix) -> GramMatrix:
    """Gram matrix of the noisy distances D + noise, via the atom expansion.

    The expansion is linear, so the result differs from the clean Gram
    matrix by exactly the expansion of the noise alone.
    """
    if noise.n != D.n:
        raise DomainError(f"noise is {noise.n}x{noise.n}, distances are {D.n}x{D.n}")
    rows, cols = pair_arrays(D.n)
    noisy_upper = D.entries[rows, cols] + noise.entries[rows, cols]
    return GramMatrix(expand_coefficients(noisy_upper, D.n))


def noise_experiment(n: int, r: int, epsilon: float, trials: int,
                     seed: int) -> StabilityReport:
    """Seeded random noise trials and one adversarial trial against the bounds.

    Each random trial draws a standard-normal configuration of n points
    in r dimensions and symmetric hollow noise E with entries uniform in
    [-epsilon, epsilon]; it records ‖-1/2 J E J‖_sup / ‖E‖_sup, which by
    linearity is exactly ‖noisy Gram - clean Gram‖_sup / ‖E‖_sup.  The
    configuration therefore never enters the ratio; it is still drawn so
    that every trial's noise stays the same draw from its stream.
    Per-trial generators are spawned from the master seed, so the report
    is reproducible and independent of execution order.  The adversarial
    trial runs :func:`worst_case_noise` through the same computation.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if not epsilon > 0:
        raise DomainError(f"noise level must be positive, got {epsilon}")
    # row sums of the noise can reach (n-1)*epsilon and |E - m - m + mean|
    # 4*epsilon; both must stay finite
    if not math.isfinite(max(n, 4) * epsilon):
        raise DomainError(f"noise level {epsilon} is too large for n={n}")
    # subnormal entries are spaced 2^-1074 apart, more than 2^-52 epsilon,
    # so the ratio drifts (by 100% at 5e-324)
    tiny = np.finfo(float).tiny
    if epsilon < tiny:
        raise DomainError(f"noise level {epsilon} is subnormal; need at least {tiny}")
    if not 1 <= r < n:
        raise DomainError(f"need n > r >= 1, got n={n}, r={r}")
    factor = amplification_factor(n)
    attained = attained_amplification(n)
    rows, cols = pair_arrays(n)
    max_ratio = 0.0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        rng.standard_normal((n, r))
        upper = rng.uniform(-epsilon, epsilon, size=rows.shape[0])
        # symmetric and hollow by construction, so not validated again
        E = np.zeros((n, n))
        E[rows, cols] = upper
        E[cols, rows] = upper
        max_ratio = max(max_ratio, _ratio(E))
    adversarial_ratio = _ratio(worst_case_noise(n).entries)
    passed = (
        max_ratio <= attained * (1 + 1e-12)
        and abs(adversarial_ratio - attained) <= 1e-12 * attained
        and attained <= factor < NOISE_BOUND
    )
    return StabilityReport(
        n=n,
        trials=trials,
        max_ratio=max_ratio,
        factor=factor,
        bound=NOISE_BOUND,
        attained=attained,
        adversarial_ratio=adversarial_ratio,
        passed=passed,
    )


def _ratio(E: np.ndarray) -> float:
    """‖Gram perturbation‖_sup over ‖noise‖_sup for a symmetric hollow E."""
    return float(np.max(np.abs(center_by_means(E)))) / float(np.max(np.abs(E)))
