"""Exact-arithmetic workbench for finite-dimensional two-family
Cuntz-Pimsner representations of Hilbert bimodules over commutative
C*-algebras.

Everything is computed over the Gaussian rationals. Floats carry only
integers under a proven bound, never approximations: a matrix product runs
as a float64 GEMM only when every partial sum is an integer of magnitude at
most 2^53, which float64 represents exactly.
"""

from .scalars import GaussianRational
from .linalg import ExactMatrix, GramStack, NotHermitian, SingularGram, psd_check
from .quadmodule import (
    InvalidParameter,
    LambdaNotFaithful,
    QuadModuleSpec,
    build_example_MN,
    build_example_alpha_beta,
)
from .fock import DepthTooSmall, FockSpace, TooLarge, build_fock
from .relations import full_identity_suite, make_generators
from .ck import (
    CKStructureError,
    bipartite_relation_matrices,
    build_ck_generators,
    column_amalgamation,
    is_aperiodic,
    verify_ck_relations,
    verify_two_isometry_relations,
)
from .ktheory import (
    AssumptionsViolated,
    FGAbelianGroup,
    k_groups,
    smith_normal_form,
)

__all__ = [
    "GaussianRational",
    "ExactMatrix",
    "GramStack",
    "NotHermitian",
    "SingularGram",
    "psd_check",
    "InvalidParameter",
    "LambdaNotFaithful",
    "QuadModuleSpec",
    "build_example_MN",
    "build_example_alpha_beta",
    "DepthTooSmall",
    "FockSpace",
    "TooLarge",
    "build_fock",
    "full_identity_suite",
    "make_generators",
    "CKStructureError",
    "bipartite_relation_matrices",
    "build_ck_generators",
    "column_amalgamation",
    "is_aperiodic",
    "verify_ck_relations",
    "verify_two_isometry_relations",
    "AssumptionsViolated",
    "FGAbelianGroup",
    "k_groups",
    "smith_normal_form",
]
