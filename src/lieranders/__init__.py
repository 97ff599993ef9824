"""Exact curvature and Douglas/Berwald classification of left-invariant
Randers metrics on low-dimensional Lie groups.

The package imports no numpy.  The float sweeps live in
:mod:`lieranders.sweep` (``run_sweep``, ``SweepResult``), which loads numpy
when it is imported.
"""

__version__ = "0.1.0"

from .algebra import AlgebraVector, LieAlgebra, Subspace, catalog
from .classify import (
    CaseReport,
    Classification,
    RandersClass,
    classify_randers,
    douglas_subspace,
    is_berwald,
    is_douglas,
    reproduce_theorem,
)
from .definition import (
    DefinitionError,
    DefinitionFile,
    load_definition,
    parse_definition,
    save_definition,
    serialize_definition,
)
from .errors import (
    DegenerateFlag,
    DegeneratePlane,
    DimensionMismatch,
    LieRandersError,
    NormTooLarge,
    NotDouglas,
)
from .flagcurv import (
    CompiledRanders,
    Flag,
    FlagCurvatureResult,
    compile_randers,
    flag_curvature_deng_hou,
    flag_curvature_simplified,
    sign_certificate,
    u_map,
)
from .hypercomplex import (
    ComplexStructureTriple,
    find_signed_permutation_triples,
    nijenhuis,
    verify_complex_structure,
    verify_hyper_hermitian,
    verify_hypercomplex,
)
from .randers import RandersStructure, make_randers
from .riemann import (
    ConnectionTable,
    CurvatureTable,
    MetricTensor,
    curvature_tensor,
    identity_metric,
    levi_civita,
    sectional_curvature,
)

__all__ = [
    "AlgebraVector",
    "CaseReport",
    "Classification",
    "CompiledRanders",
    "ComplexStructureTriple",
    "ConnectionTable",
    "CurvatureTable",
    "DefinitionError",
    "DefinitionFile",
    "DegenerateFlag",
    "DegeneratePlane",
    "DimensionMismatch",
    "Flag",
    "FlagCurvatureResult",
    "LieAlgebra",
    "LieRandersError",
    "MetricTensor",
    "NormTooLarge",
    "NotDouglas",
    "RandersClass",
    "RandersStructure",
    "Subspace",
    "catalog",
    "classify_randers",
    "compile_randers",
    "curvature_tensor",
    "douglas_subspace",
    "find_signed_permutation_triples",
    "flag_curvature_deng_hou",
    "flag_curvature_simplified",
    "identity_metric",
    "is_berwald",
    "is_douglas",
    "levi_civita",
    "load_definition",
    "make_randers",
    "nijenhuis",
    "parse_definition",
    "reproduce_theorem",
    "save_definition",
    "sectional_curvature",
    "serialize_definition",
    "sign_certificate",
    "u_map",
    "verify_complex_structure",
    "verify_hyper_hermitian",
    "verify_hypercomplex",
]
