"""Batch float kernels behind the sweep machinery.

Each sweep compiles its structure once, exactly, with
:func:`lieranders.flagcurv.compile_randers` and takes the float ``R2``,
``G2`` (bivectors w = U^V: ``g(R(U,V)V, U) = w^T R2 w``, ``|U^V|^2 = w^T G2 w``),
``A`` and ``C`` (``A(V) = g([Q,V],V)``, ``C(V)`` the cubic correction form)
from its ``dense()``.  Each kernel is then a few matrix products on (n, dim)
blocks ``U``/``V``, which every kernel takes last.
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
    return ((w @ R2) * w).sum(1) / ((w @ G2) * w).sum(1)


def correction_batch(
    A: np.ndarray, C: np.ndarray, V: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """(3 A(V)^2 - 2 F C(V)) / (4 F^4), the Douglas flag-curvature correction."""
    quad = ((V @ A) * V).sum(1)
    vv = (V[:, :, None] * V[:, None, :]).reshape(len(V), -1)
    cubic = ((vv @ C.T) * V).sum(1)
    return (3.0 * quad * quad - 2.0 * F * cubic) / (4.0 * F**4)
