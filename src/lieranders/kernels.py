"""Batch float kernels behind the sweep machinery.

Each sweep compiles its structure once, exactly, with
:func:`lieranders.flagcurv.compile_randers` and takes the float ``R2``,
``G2`` (bivectors w = U^V: ``g(R(U,V)V, U) = w^T R2 w``, ``|U^V|^2 = w^T G2 w``),
``A`` and ``C`` (``A(V) = g([Q,V],V)``, ``C(V)`` the cubic correction form)
from :func:`lieranders.sweep.dense_forms`.  Each kernel takes its (n, dim)
blocks ``U``/``V`` last and evaluates each form with one product and one
two-operand reduction: the quadratic form x^T M x as the row dot
``einsum("nk,nk->n", x, x @ M)``, and the cubic form C(V) as the product
``P = V @ C``, ``P_nbc = sum_a V_a C_abc``, contracted with V by
``einsum("nbc,nc->nb")`` and a row dot, so no (n, dim^2) array V (x) V is
built.  Empty blocks give empty columns.
"""

from __future__ import annotations

import itertools

import numpy as np


def eval_f_batch(gram: np.ndarray, q: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """F(y) = sqrt(g(y,y)) + g(q,y) per row of Y."""
    gy = Y @ gram
    return np.sqrt(np.einsum("nk,nk->n", Y, gy)) + gy @ q


def sectional_batch(
    R2: np.ndarray, G2: np.ndarray, U: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """Sectional curvature of span{U, V} per row, through the bivector U^V.

    Needs dimension >= 2, where a flag plane exists.
    """
    # the pairs i < j in the itertools.combinations order of R2 and G2
    i, j = zip(*itertools.combinations(range(U.shape[1]), 2))
    # w = U_i V_j - U_j V_i, formed in the gathered copies: four (n, p)
    # allocations instead of the plain expression's seven
    w = U[:, i]
    w *= V[:, j]
    uv = U[:, j]
    uv *= V[:, i]
    w -= uv
    return np.einsum("nk,nk->n", w, w @ R2) / np.einsum("nk,nk->n", w, w @ G2)


def correction_batch(
    A: np.ndarray, C: np.ndarray, V: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """(3 A(V)^2 - 2 F C(V)) / (4 F^4), the Douglas flag-curvature correction."""
    n, dim = V.shape
    quad = np.einsum("nk,nk->n", V, V @ A)
    P = (V @ C).reshape(n, dim, dim)  # P_nbc = sum_a V_a C_abc
    cubic = np.einsum("nk,nk->n", V, np.einsum("nbc,nc->nb", P, V))
    return (3.0 * quad * quad - 2.0 * F * cubic) / (4.0 * F**4)
