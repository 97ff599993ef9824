"""Exception types shared across the package."""


class LieRandersError(Exception):
    """Base class for all errors raised by this package."""


class DefinitionError(LieRandersError):
    """Definition file or command-line value is syntactically or structurally invalid."""


class DimensionMismatch(LieRandersError):
    """Operands have incompatible dimensions."""


class NormTooLarge(LieRandersError):
    """The deformation field Q has g-norm >= 1, so F is not a Finsler metric."""

    def __init__(self, norm_squared):
        self.norm_squared = norm_squared
        super().__init__(f"g(Q,Q) = {norm_squared} >= 1; Randers metric is not Finsler")


class DegeneratePlane(LieRandersError):
    """The two vectors supposed to span a plane are linearly dependent."""


class DegenerateFlag(DegeneratePlane):
    """Flag pole and completing vector do not span a plane."""


class NotDouglas(LieRandersError):
    """Flag curvature formulas here only cover Randers metrics of Douglas type."""
