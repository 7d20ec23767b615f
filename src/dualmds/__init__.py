"""Classical multidimensional scaling through a dual basis of rank-2 atoms.

The package recovers point configurations from squared Euclidean
distances and mechanically verifies the closed-form structure it leans
on: the biorthogonal atom families, the integer Gram matrix of the
measurement atoms and its three-eigenvalue spectrum, the bound on and
the attained worst case of the amplification of additive distance
noise, and the triangle-inequality constraint matrix whose Gram matrix
is an exact integer complement of the atom Gram.
"""

from .basis import (
    BasisAtom,
    BasisGram,
    DualAtom,
    basis_atom,
    basis_gram,
    dual_atom,
    dual_atom_eigenpairs,
    dual_gram_entry,
    dual_gram_matrix,
    h_spectrum_predicted,
    triangular_graph_adjacency,
)
from .errors import DomainError, NonEuclideanError, ParseError, ResourceLimitError
from .fileio import read_matrix_csv, write_matrix_csv, write_triplets
from .mds import (
    EmbeddingResult,
    double_center,
    dual_expansion,
    embed,
    expand_coefficients,
    is_euclidean,
    measure_coefficients,
    procrustes_residual,
    squared_distances,
)
from .nearness import (
    ConstraintMatrix,
    ConstraintViolation,
    DissimilarityMatrix,
    TripleConstraint,
    constraint_gram,
    constraint_matrix,
    gram_identity_check,
    num_constraints,
    predicted_singular_values,
    violations,
)
from .pairspace import (
    CenteringMatrix,
    GramMatrix,
    PairIndex,
    PointConfiguration,
    SquaredDistanceMatrix,
    centering_matrix,
    linear_to_pair,
    num_pairs,
    pair_to_linear,
)
from .spectral import SpectrumReport, group_spectrum, sym_eig
from .stability import (
    NOISE_BOUND,
    NoiseMatrix,
    StabilityReport,
    amplification_factor,
    attained_amplification,
    noise_experiment,
    perturbed_gram,
    worst_case_noise,
)

__version__ = "0.1.0"

__all__ = [
    "BasisAtom",
    "BasisGram",
    "CenteringMatrix",
    "ConstraintMatrix",
    "ConstraintViolation",
    "DissimilarityMatrix",
    "DomainError",
    "DualAtom",
    "EmbeddingResult",
    "GramMatrix",
    "NOISE_BOUND",
    "NoiseMatrix",
    "NonEuclideanError",
    "PairIndex",
    "ParseError",
    "PointConfiguration",
    "ResourceLimitError",
    "SpectrumReport",
    "SquaredDistanceMatrix",
    "StabilityReport",
    "TripleConstraint",
    "amplification_factor",
    "attained_amplification",
    "basis_atom",
    "basis_gram",
    "centering_matrix",
    "constraint_gram",
    "constraint_matrix",
    "double_center",
    "dual_atom",
    "dual_atom_eigenpairs",
    "dual_expansion",
    "dual_gram_entry",
    "dual_gram_matrix",
    "embed",
    "expand_coefficients",
    "gram_identity_check",
    "group_spectrum",
    "h_spectrum_predicted",
    "is_euclidean",
    "linear_to_pair",
    "measure_coefficients",
    "noise_experiment",
    "num_constraints",
    "num_pairs",
    "pair_to_linear",
    "perturbed_gram",
    "predicted_singular_values",
    "procrustes_residual",
    "read_matrix_csv",
    "squared_distances",
    "sym_eig",
    "triangular_graph_adjacency",
    "violations",
    "worst_case_noise",
    "write_matrix_csv",
    "write_triplets",
]
