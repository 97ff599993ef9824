"""Float Finsler quantities of a Randers structure, kept as test oracles.

F, its closed-form fundamental tensor and the osculating inner product g_V,
evaluated pointwise in floats.  The library decides validity exactly
(g(Q,Q) < 1 at construction); these check that F behaves as a Finsler
norm there, and give the sweep kernels' F an independent scalar route.
"""

import math

import numpy as np

from lieranders.errors import DimensionMismatch, LieRandersError


class ZeroDirection(LieRandersError):
    """A pointwise Finsler quantity was requested at the zero vector."""


def _floats(x) -> np.ndarray:
    return np.asarray([float(c) for c in x], dtype=float)


def eval_F(r, y) -> float:
    """F(y) = sqrt(g(y,y)) + g(Q,y); positively 1-homogeneous, >0 off zero."""
    yv = _floats(y)
    if yv.shape != (r.dim,):
        raise DimensionMismatch("direction has wrong length")
    gram = np.array(r.metric.gram, dtype=float)
    return math.sqrt(max(yv @ gram @ yv, 0.0)) + float(_floats(r.q_field) @ gram @ yv)


def fundamental_tensor(r, y) -> np.ndarray:
    """Fundamental tensor g_ij(y) = (1/2) d^2 F^2 / dy_i dy_j, in closed form.

    With F = alpha + beta, alpha^2 = a_ij y^i y^j, beta = b_i y^i, b = G Q and
    y_i = a_ij y^j (Bao-Chern-Shen, *An Introduction to Riemann-Finsler
    Geometry*, GTM 200, section 11):

        g_ij = (F/alpha) (a_ij - y_i y_j / alpha^2) + (b_i + y_i/alpha)(b_j + y_j/alpha).

    Exactly symmetric; positive definite whenever the structure is valid and
    y != 0.
    """
    yv = _floats(y)
    if not yv.any():
        raise ZeroDirection("fundamental tensor is undefined at y = 0")
    gram = np.array(r.metric.gram, dtype=float)
    b = gram @ _floats(r.q_field)
    y_low = gram @ yv
    alpha = math.sqrt(yv @ y_low)
    f = alpha + b @ yv
    ell = b + y_low / alpha
    return f / alpha * (gram - np.outer(y_low, y_low) / alpha**2) + np.outer(ell, ell)


def g_V(r, v, u, w) -> float:
    """Osculating inner product g_V(u, w) = u^i g_ij(V) w^j.

    Bilinear, symmetric up to rounding, and g_V(V, V) = F(V)^2.
    """
    vv = _floats(v)
    if not vv.any():
        raise ZeroDirection("g_V is undefined for V = 0")
    return float(_floats(u) @ fundamental_tensor(r, vv) @ _floats(w))
