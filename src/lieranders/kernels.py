"""Batch float kernels behind the sweep machinery.

A sweep evaluates the same formulas over many float flags.  Each structure
is compiled once into four small arrays, and every kernel is then a few
matrix products per sample block:

* :func:`bivector_forms` gives ``R2`` and ``G2`` on the p = d(d-1)/2
  bivector coordinates ``w_(ij) = U_i V_j - U_j V_i`` (i < j):
  ``g(R(U,V)V, U) = w^T R2 w`` is the curvature operator on Lambda^2 g
  (Milnor, *Curvatures of left invariant metrics on Lie groups*, Adv. Math.
  21, 1976), and ``|U^V|^2 = w^T G2 w``.
* :func:`randers_forms` gives ``A`` (d x d, symmetric) and ``C`` (d x d^2,
  symmetrised) with ``A(V) = V^T A V = g([Q,V],V)`` and
  ``C(V) = sum C_abc V_a V_b V_c = g([[Q,V],V],V) - g(V,[Q,ad*_V V])``,
  the two forms of the simplified Douglas flag-curvature correction.

The compilers only add and multiply, so they also run on object arrays of
``Fraction`` and then return the exact coefficients.

Array conventions: ``struct[i,j,k]`` are structure constants, ``gram`` the
metric, ``V``/``U`` are (n, dim) sample blocks, ``rm4[i,j,k,l]`` is
g(R(e_i,e_j)e_k, e_l).  Every kernel takes its per-sample block last.
"""

from __future__ import annotations

import itertools

import numpy as np


def bivector_forms(rm4: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R2, G2) on the bivector coordinates w_(ij), i < j."""
    i, j = np.triu_indices(len(gram), 1)
    a, b = i[:, None], j[:, None]
    c, d = i[None, :], j[None, :]
    # g(R(U,V)V,U) = sum rm4[i,j,k,l] U_i V_j V_k U_l, antisymmetric in (i,j)
    # and in (k,l), is -sum_{i<j, k<l} rm4[i,j,k,l] w_(ij) w_(kl)
    r2 = -rm4[a, b, c, d]
    g2 = gram[a, c] * gram[b, d] - gram[a, d] * gram[b, c]
    return r2, g2


def randers_forms(
    struct: np.ndarray, gram: np.ndarray, gram_inv: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(A, C): the quadratic form g([Q,V],V) and the cubic correction form."""
    dim = len(gram)
    bracket_q = np.einsum("i,ijk->jk", q, struct)  # [Q, x] = x @ bracket_q
    m = bracket_q @ gram  # g([Q,V], W) = V^T m W
    quad = (m + m.T) / 2
    # g([[Q,V],V],V)
    t1 = np.einsum("jm,mbn,nc->jbc", bracket_q, struct, gram)
    # g(V,[Q,ad*_V V]) with g(ad*_V V, e_k) = g(V,[V,e_k])
    t2 = np.einsum("an,bkn,kc->abc", gram, struct, gram_inv @ m)
    t = t1 - t2
    sym = sum(t.transpose(axes) for axes in itertools.permutations(range(3))) / 6
    return quad, sym.reshape(dim, dim * dim)


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
