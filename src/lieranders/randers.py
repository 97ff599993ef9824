"""Left-invariant Randers metrics F(y) = sqrt(g(y,y)) + g(Q,y).

Validity (g(Q,Q) < 1) is decided exactly on the rational data.  It is also
the whole Finsler condition: the fundamental tensor of F is positive
definite at every y != 0 iff g(Q,Q) < 1 (Bao-Chern-Shen, *An Introduction
to Riemann-Finsler Geometry*, GTM 200, section 11).  F itself is evaluated
in floats only by the flag-curvature routes and the sweep kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AlgebraVector, LieAlgebra
from .errors import DimensionMismatch, NormTooLarge
from .riemann import MetricTensor


@dataclass(frozen=True)
class RandersStructure:
    """(algebra, metric, Q) with g(Q,Q) < 1, checked exactly at construction.

    ``norm_q_squared`` is g(Q,Q), computed once here.  Raises
    DimensionMismatch unless algebra, metric and Q share one dimension, and
    NormTooLarge when g(Q,Q) >= 1.
    """

    algebra: LieAlgebra
    metric: MetricTensor
    q_field: AlgebraVector
    norm_q_squared: Fraction = field(init=False)

    def __post_init__(self):
        if len(self.q_field) != self.algebra.dim or self.metric.dim != self.algebra.dim:
            raise DimensionMismatch("algebra, metric and Q must share one dimension")
        norm_sq = self.metric.inner(self.q_field, self.q_field)
        if norm_sq >= 1:
            raise NormTooLarge(norm_sq)
        object.__setattr__(self, "norm_q_squared", norm_sq)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def make_randers(
    algebra: LieAlgebra, metric: MetricTensor, q: AlgebraVector
) -> RandersStructure:
    """Build a Randers structure, rejecting q with g(q,q) >= 1 exactly."""
    return RandersStructure(algebra=algebra, metric=metric, q_field=q)
