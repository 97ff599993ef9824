"""The dense float kernels, kept as an oracle for the monomial kernels.

``dense_forms`` lays the compiled forms out as dense float tables, each
entry one correctly rounded ``num / d`` of the symmetric monomials, and the
three kernels evaluate them with matrix products and ``einsum`` reductions:
the quadratic form x^T M x as the row dot ``einsum("nk,nk->n", x, x @ M)``
and the cubic form C(V) through ``P = V @ C``, ``P_nbc = sum_a V_a C_abc``.
``exact_terms`` gives a form's monomials with exact ``Fraction``
coefficients, for running the library kernels on object arrays.
"""

import itertools
from fractions import Fraction

import numpy as np


def dense_forms(compiled):
    """Float (R2, G2, A, C) of the compiled forms, C as a dim x dim^2 array."""
    n, p = compiled.dim, compiled.dim * (compiled.dim - 1) // 2
    tables = []
    for form, shape in ((compiled.r2, (p, p)), (compiled.g2, (p, p)),
                        (compiled.a, (n, n)), (compiled.c, (n, n, n))):
        table = np.zeros(shape)
        for idx, num in form.terms.items():
            table[idx] = num / form.d
        tables.append(table)
    r2, g2, a, c = tables
    return r2, g2, a, c.reshape(n, n * n)


def exact_terms(form):
    """(index tuple, Fraction coefficient) of each monomial."""
    return [(idx, Fraction(num, form.d)) for idx, num in form.terms.items()]


def oracle_eval_f_batch(gram, q, Y):
    """F(y) = sqrt(g(y,y)) + g(q,y) per row of Y."""
    gy = Y @ gram
    return np.sqrt(np.einsum("nk,nk->n", Y, gy)) + gy @ q


def oracle_sectional_batch(R2, G2, U, V):
    """w^T R2 w / w^T G2 w per row, w = U^V."""
    i, j = zip(*itertools.combinations(range(U.shape[1]), 2))
    w = U[:, i] * V[:, j] - U[:, j] * V[:, i]
    return np.einsum("nk,nk->n", w, w @ R2) / np.einsum("nk,nk->n", w, w @ G2)


def oracle_correction_batch(A, C, V, F):
    """(3 A(V)^2 - 2 F C(V)) / (4 F^4) from the dense A and C."""
    n, dim = V.shape
    quad = np.einsum("nk,nk->n", V, V @ A)
    P = (V @ C).reshape(n, dim, dim)
    cubic = np.einsum("nk,nk->n", V, np.einsum("nbc,nc->nb", P, V))
    return (3.0 * quad * quad - 2.0 * F * cubic) / (4.0 * F**4)
