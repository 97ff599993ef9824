"""Batch float kernels behind the sweep machinery.

Each kernel takes its flags as contiguous (dim, n) columns, one row per
coordinate, as the sweep draws them: V as ``v``, and the plane as its
bivector columns w = U^V (:func:`wedge_batch`, one row per index pair i < j
in ``itertools.combinations`` order, the order of the compiled ``R2`` and
``G2``; the draw reads G2(w) from them for its rejection test).  Each
compiled form it is given, g(Q, .), ``R2`` on w (K^g = R2(w) / G2(w)),
``A`` and ``C``, is evaluated as its ``IntegerForm.rounded()`` monomials with
:func:`form_batch`: the cost is proportional to the nonzero terms, and no
dense table is built.  No kernel transposes, copies or writes into its
inputs.
"""

from __future__ import annotations

import itertools

import numpy as np


def _horner(terms: list, x: np.ndarray, depth: int) -> np.ndarray:
    """sum over sorted ``terms`` of coef * x[idx[depth]] * ...; terms sharing
    x[i] at ``depth`` share one product by it, the last index is one dot."""
    if depth == len(terms[0][0]) - 1:
        if len(terms) == 1:
            (idx, coef), = terms
            return x[idx[depth]] if coef == 1 else x[idx[depth]] * coef
        ks = [idx[depth] for idx, _ in terms]
        rows = slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] + 1 == len(ks) else ks
        return np.array([coef for _, coef in terms]) @ x[rows]
    # summed as they come, so one group's product is alive at a time
    groups = itertools.groupby(terms, key=lambda term: term[0][depth])
    i, group = next(groups)
    total = x[i] * _horner(list(group), x, depth + 1)
    for i, group in groups:
        total += x[i] * _horner(list(group), x, depth + 1)
    return total


def form_batch(terms, x: np.ndarray) -> np.ndarray:
    """sum of coef * x[i] * x[j] * ... over the (index tuple, coef) ``terms``,
    per column of the rows x[i]; x[k] itself (a view) for the one term x_k.
    On ``Fraction`` object arrays with exact coefficients it is exact."""
    if not terms:
        return np.zeros(x.shape[1], dtype=x.dtype)
    return _horner(sorted(terms), x, 0)


def eval_f_batch(gvv: np.ndarray, beta, v: np.ndarray) -> np.ndarray:
    """F(y) = sqrt(g(y,y)) + g(Q,y) per column of v; ``beta`` is g(Q, .)."""
    f = np.sqrt(gvv)
    f += form_batch(beta, v)
    return f


def wedge_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector columns w_(ij) = U_i V_j - U_j V_i of w = U^V, one row per
    i < j in ``itertools.combinations`` order (the order of R2 and G2)."""
    dim = len(u)
    w = np.empty((dim * (dim - 1) // 2, u.shape[1]), dtype=np.result_type(u, v))
    scratch = np.empty_like(w[0])
    for t, (i, j) in enumerate(itertools.combinations(range(dim), 2)):
        np.multiply(u[i], v[j], out=w[t])
        w[t] -= np.multiply(u[j], v[i], out=scratch)
    return w


def sectional_batch(r2, w: np.ndarray, g2w: np.ndarray) -> np.ndarray:
    """Sectional curvature K^g = R2(w) / G2(w) per column of the bivectors w,
    given ``g2w`` = G2(w)."""
    return form_batch(r2, w) / g2w


def correction_batch(a, c, v: np.ndarray, F: np.ndarray) -> np.ndarray:
    """(3 A(V)^2 - 2 F C(V)) / (4 F^4), the Douglas flag-curvature correction,
    per column of v; F^4 is (F F)^2."""
    quad, cubic = form_batch(a, v), form_batch(c, v)
    out = quad * 3.0
    out *= quad
    t = F * 2.0
    t *= cubic
    out -= t
    np.multiply(F, F, out=t)
    t *= t
    t *= 4.0
    out /= t
    return out
