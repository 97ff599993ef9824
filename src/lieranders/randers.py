"""Left-invariant Randers metrics F(y) = sqrt(g(y,y)) + g(Q,y).

Validity (g(Q,Q) < 1) is decided exactly on the rational data; pointwise
evaluation of F and its closed-form fundamental tensor is floating point, the
square root being the only irrational ingredient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AlgebraVector, LieAlgebra
from .errors import DimensionMismatch, NormTooLarge, ZeroDirection
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


def dense_gram(metric: MetricTensor) -> np.ndarray:
    """The Gram matrix as floats."""
    return np.array(metric.gram, dtype=float)


def eval_F(r: RandersStructure, y) -> float:
    """F(y) = sqrt(g(y,y)) + g(Q,y); positively 1-homogeneous, >0 off zero."""
    yv = np.asarray([float(c) for c in y])
    if yv.shape != (r.dim,):
        raise DimensionMismatch("direction has wrong length")
    gram = dense_gram(r.metric)
    qv = np.asarray([float(c) for c in r.q_field])
    return math.sqrt(max(yv @ gram @ yv, 0.0)) + float(qv @ gram @ yv)


def fundamental_tensor(r: RandersStructure, y) -> np.ndarray:
    """Fundamental tensor g_ij(y) = (1/2) d^2 F^2 / dy_i dy_j, in closed form.

    With F = alpha + beta, alpha^2 = a_ij y^i y^j, beta = b_i y^i, b = G Q and
    y_i = a_ij y^j (Bao-Chern-Shen, *An Introduction to Riemann-Finsler
    Geometry*, GTM 200, section 11):

        g_ij = (F/alpha) (a_ij - y_i y_j / alpha^2) + (b_i + y_i/alpha)(b_j + y_j/alpha).

    Exactly symmetric; positive definite whenever the structure is valid and
    y != 0.
    """
    yv = np.asarray([float(c) for c in y], dtype=float)
    if not yv.any():
        raise ZeroDirection("fundamental tensor is undefined at y = 0")
    gram = dense_gram(r.metric)
    b = gram @ np.asarray([float(c) for c in r.q_field])
    y_low = gram @ yv
    alpha = math.sqrt(yv @ y_low)
    f = alpha + b @ yv
    ell = b + y_low / alpha
    return f / alpha * (gram - np.outer(y_low, y_low) / alpha**2) + np.outer(ell, ell)


def g_V(r: RandersStructure, v, u, w) -> float:
    """Osculating inner product g_V(u, w) = u^i g_ij(V) w^j.

    Bilinear, symmetric up to rounding, and g_V(V, V) = F(V)^2.
    """
    vv = np.asarray([float(c) for c in v], dtype=float)
    if not vv.any():
        raise ZeroDirection("g_V is undefined for V = 0")
    uv = np.asarray([float(c) for c in u], dtype=float)
    wv = np.asarray([float(c) for c in w], dtype=float)
    return float(uv @ fundamental_tensor(r, vv) @ wv)
