"""Batch float kernels behind the sweep machinery.

Each sweep compiles its structure once, exactly, with
:func:`lieranders.flagcurv.compile_randers` and takes the float ``R2``,
``G2`` (bivectors w = U^V: ``g(R(U,V)V, U) = w^T R2 w``, ``|U^V|^2 = w^T G2 w``),
``A`` and ``C`` (``A(V) = g([Q,V],V)``, ``C(V)`` the cubic correction form)
from its ``dense()``.  Each kernel is then a few matrix products on (n, dim)
blocks ``U``/``V``, which every kernel takes last, and each quadratic form
x^T M x is the row dot ``einsum("nk,nk->n", x, x @ M)``: one product and
one two-operand reduction per form.  Empty blocks give empty columns.
"""

from __future__ import annotations

import numpy as np


def eval_f_batch(gram: np.ndarray, q: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """F(y) = sqrt(g(y,y)) + g(q,y) per row of Y."""
    gy = Y @ gram
    return np.sqrt(np.einsum("nk,nk->n", Y, gy)) + gy @ q


def sectional_batch(
    R2: np.ndarray, G2: np.ndarray, U: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """Sectional curvature of span{U, V} per row, through the bivector U^V."""
    i, j = np.triu_indices(U.shape[1], 1)
    w = U[:, i] * V[:, j] - U[:, j] * V[:, i]
    return np.einsum("nk,nk->n", w, w @ R2) / np.einsum("nk,nk->n", w, w @ G2)


def correction_batch(
    A: np.ndarray, C: np.ndarray, V: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """(3 A(V)^2 - 2 F C(V)) / (4 F^4), the Douglas flag-curvature correction."""
    n, dim = V.shape
    quad = np.einsum("nk,nk->n", V, V @ A)
    vv = (V[:, :, None] * V[:, None, :]).reshape(n, dim * dim)
    cubic = np.einsum("nk,nk->n", V, vv @ C.T)
    return (3.0 * quad * quad - 2.0 * F * cubic) / (4.0 * F**4)
