"""Left-invariant Randers metrics F(y) = sqrt(g(y,y)) + g(Q,y).

Validity (g(Q,Q) < 1) is decided exactly on the rational data; pointwise
evaluation of F and its fundamental tensor is floating point, the square root
being the only irrational ingredient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraVector, LieAlgebra
from .errors import DimensionMismatch, NormTooLarge, ZeroDirection
from .riemann import MetricTensor

# central-difference step scale; gives ~1e-8 truncation error on unit-scale data
FD_STEP = 1e-5


@dataclass(frozen=True)
class RandersStructure:
    """(algebra, metric, Q) with g(Q,Q) < 1 guaranteed at construction."""

    algebra: LieAlgebra
    metric: MetricTensor
    q_field: AlgebraVector
    norm_q_squared: Fraction

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def is_riemannian(self) -> bool:
        return self.norm_q_squared == 0


def make_randers(
    algebra: LieAlgebra, metric: MetricTensor, q: AlgebraVector
) -> RandersStructure:
    """Build a Randers structure, rejecting q with g(q,q) >= 1 exactly."""
    if len(q) != algebra.dim or metric.dim != algebra.dim:
        raise DimensionMismatch("algebra, metric and Q must share one dimension")
    norm_sq = metric.inner(q, q)
    if norm_sq >= 1:
        raise NormTooLarge(norm_sq)
    return RandersStructure(
        algebra=algebra, metric=metric, q_field=q, norm_q_squared=norm_sq
    )


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


def _F_squared(gram: np.ndarray, qg: np.ndarray, y: np.ndarray) -> float:
    # qg = G q precomputed; F^2 as a plain float function of y
    a = math.sqrt(max(y @ gram @ y, 0.0))
    return (a + float(qg @ y)) ** 2


def fundamental_tensor(r: RandersStructure, y) -> np.ndarray:
    """Numerical Hessian (1/2) d^2 F^2 / dy_i dy_j at y, by central differences.

    Symmetric by construction; positive definite whenever the structure is
    valid and y != 0.
    """
    yv = np.asarray([float(c) for c in y], dtype=float)
    if not yv.any():
        raise ZeroDirection("fundamental tensor is undefined at y = 0")
    gram = dense_gram(r.metric)
    qg = gram @ np.asarray([float(c) for c in r.q_field])
    n = r.dim
    h = FD_STEP * max(1.0, math.sqrt(yv @ gram @ yv))
    out = np.empty((n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            pp = _F_squared(gram, qg, yv + h * eye[i] + h * eye[j])
            pm = _F_squared(gram, qg, yv + h * eye[i] - h * eye[j])
            mp = _F_squared(gram, qg, yv - h * eye[i] + h * eye[j])
            mm = _F_squared(gram, qg, yv - h * eye[i] - h * eye[j])
            out[i, j] = out[j, i] = (pp - pm - mp + mm) / (8.0 * h * h)
    return out


def g_V(r: RandersStructure, v, u, w) -> float:
    """Osculating inner product g_V(u,w) = (1/2) d^2/ds dt F^2(V + sU + tW).

    Mixed central differences at s = t = 0; symmetric and bilinear up to the
    finite-difference tolerance, with g_V(V,V) = F(V)^2.
    """
    vv = np.asarray([float(c) for c in v], dtype=float)
    if not vv.any():
        raise ZeroDirection("g_V is undefined for V = 0")
    uv = np.asarray([float(c) for c in u], dtype=float)
    wv = np.asarray([float(c) for c in w], dtype=float)
    gram = dense_gram(r.metric)
    qg = gram @ np.asarray([float(c) for c in r.q_field])
    h = FD_STEP * max(1.0, math.sqrt(vv @ gram @ vv))
    # evaluation points built from u+w and u-w so that swapping u and w
    # reproduces the identical float stencil: symmetry holds exactly
    plus = h * (uv + wv)
    minus = h * (uv - wv)
    pp = _F_squared(gram, qg, vv + plus)
    pm = _F_squared(gram, qg, vv + minus)
    mp = _F_squared(gram, qg, vv - minus)
    mm = _F_squared(gram, qg, vv - plus)
    return (pp - pm - mp + mm) / (8.0 * h * h)
