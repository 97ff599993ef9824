"""Batch float kernels behind the sweep machinery.

Each kernel takes its flags as contiguous (dim, n) columns ``u``/``v``, one
row per coordinate, as the sweep draws them, and evaluates each compiled
form it is given, g(Q, .), ``R2``/``G2`` on w = U^V (K^g = R2(w) / G2(w)),
``A`` and ``C``, as its ``IntegerForm.rounded()`` monomials with
:func:`form_batch`: the cost is proportional to the nonzero terms, and no
dense table is built.  No kernel transposes or copies its input.
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
    parts = [x[i] * _horner(list(group), x, depth + 1)
             for i, group in itertools.groupby(terms, key=lambda term: term[0][depth])]
    for part in parts[1:]:
        parts[0] += part
    return parts[0]


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


def sectional_batch(r2, g2, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sectional curvature R2(w) / G2(w) of span{U, V} per column, w = U^V; dim >= 2."""
    # w_(ij) = U_i V_j - U_j V_i in the itertools.combinations order of R2, G2
    pairs = list(itertools.combinations(range(len(u)), 2))
    w = np.empty((len(pairs), u.shape[1]), dtype=np.result_type(u, v))
    scratch = np.empty_like(w[0])
    for t, (i, j) in enumerate(pairs):
        np.multiply(u[i], v[j], out=w[t])
        w[t] -= np.multiply(u[j], v[i], out=scratch)
    return form_batch(r2, w) / form_batch(g2, w)


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
