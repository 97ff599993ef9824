"""Exact curvature and Douglas/Berwald classification of left-invariant
Randers metrics on low-dimensional Lie groups.

Importing the package loads no submodule: each name in ``__all__`` is
imported from its submodule on first access.  The package imports no numpy.
The float sweeps live in :mod:`lieranders.sweep` (``run_sweep``,
``SweepResult``), which loads numpy when it is imported.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_SOURCES = {
    "algebra": ("AlgebraVector", "LieAlgebra", "Subspace", "catalog"),
    "classify": (
        "CaseReport", "Classification", "RandersClass", "classify_randers",
        "douglas_subspace", "is_berwald", "is_douglas", "reproduce_theorem",
    ),
    "definition": ("DefinitionFile", "load_definition", "parse_definition"),
    "errors": (
        "DefinitionError", "DegenerateFlag", "DegeneratePlane", "DimensionMismatch",
        "LieRandersError", "NormTooLarge", "NotDouglas",
    ),
    "flagcurv": (
        "CompiledRanders", "Flag", "FlagCurvatureResult", "compile_randers",
        "flag_curvature_deng_hou", "flag_curvature_simplified", "sign_certificate", "u_map",
    ),
    "hypercomplex": (
        "ComplexStructureTriple", "verify_complex_structure", "verify_hyper_hermitian",
        "verify_hypercomplex",
    ),
    "randers": ("RandersStructure", "make_randers"),
    "riemann": (
        "ConnectionTable", "CurvatureTable", "MetricTensor", "curvature_tensor",
        "identity_metric", "levi_civita", "sectional_curvature",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    """An exported name, imported from its submodule on first access and then
    kept here; AttributeError for any other name, so that ``from lieranders
    import sweep`` imports the submodule."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
