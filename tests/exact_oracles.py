"""Fraction-at-a-time oracles for the integer-numerator exact invariants.

The library sums ``MetricTensor.inner``, ``LieAlgebra.bracket``, the
Levi-Civita table, the curvature entries and the Douglas and Berwald tests
in Python ints over memoised numerators.  The functions here compute the same values one
``Fraction`` at a time, from the frozen ``structure`` and ``gram`` fields
alone, and the two must agree with ``==``.
"""

from fractions import Fraction

from lieranders import exactlinalg as xl
from lieranders.algebra import Subspace, format_combination
from lieranders.errors import DimensionMismatch
from lieranders.riemann import ConnectionTable, CurvatureTable


def oracle_inner(metric, u, v):
    """g(u, v) = u . (G v) in Fractions."""
    if len(u) != metric.dim or len(v) != metric.dim:
        raise DimensionMismatch("inner product operands must match the metric")
    if metric.is_identity:
        return xl.dot(u, v)
    return xl.dot(u, xl.mat_vec(metric.gram, v))


def oracle_bracket(algebra, u, v):
    """sum_ijk u_i v_j c_ij^k e_k in Fractions."""
    if len(u) != algebra.dim or len(v) != algebra.dim:
        raise DimensionMismatch("bracket operands must match the algebra dimension")
    out = [Fraction(0)] * algebra.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                for k, c in enumerate(algebra.structure[i][j]):
                    if c:
                        out[k] += ui * vj * c
    return tuple(out)


def oracle_derived_algebra(algebra):
    """[g, g] as the rref span of the basis brackets, rebuilt on each call."""
    images = [
        algebra.structure[i][j] for i in range(algebra.dim) for j in range(i + 1, algebra.dim)
    ]
    return Subspace.span(images, algebra.dim)


def oracle_ad_star(algebra, metric, v):
    """G^-1 (ad_v)^T G in Fractions, with ad_v from ``oracle_bracket``."""
    cols = [oracle_bracket(algebra, v, e) for e in algebra.basis()]
    ad_t = tuple(tuple(col) for col in cols)  # row j of (ad_v)^T is [v, e_j]
    if metric.is_identity:
        return ad_t
    return xl.mat_mul(metric.inverse_gram, xl.mat_mul(ad_t, metric.gram))


def oracle_levi_civita(algebra, metric):
    """gamma[i][j] = ([e_i, e_j] - ad*_{e_i} e_j - ad*_{e_j} e_i) / 2 in Fractions."""
    n = algebra.dim
    e = algebra.basis()
    stars = [oracle_ad_star(algebra, metric, e[i]) for i in range(n)]
    half = Fraction(1, 2)
    return ConnectionTable(gamma=tuple(
        tuple(
            xl.vec_scale(half, xl.vec_sub(
                xl.vec_sub(algebra.structure[i][j], xl.mat_vec(stars[i], e[j])),
                xl.mat_vec(stars[j], e[i]),
            ))
            for j in range(n)
        )
        for i in range(n)
    ))


def oracle_is_douglas(algebra, metric, q):
    """Orthogonality of q to every basis vector of [g, g], in Fractions."""
    evidence = []
    for b in oracle_derived_algebra(algebra).basis:
        val = oracle_inner(metric, q, b)
        if val != 0:
            evidence.append(f"g(Q, {format_combination(b, algebra.labels)}) = {val}")
    return (not evidence, evidence)


def oracle_is_berwald(algebra, metric, q):
    """nabla_{e_i} q = 0 for all i, through the Fraction connection table."""
    conn = oracle_levi_civita(algebra, metric)
    evidence = []
    for i in range(algebra.dim):
        deriv = conn.nabla(algebra.basis_vector(i), q)
        if not xl.vec_is_zero(deriv):
            evidence.append(
                f"nabla_{algebra.labels[i]} Q = {format_combination(deriv, algebra.labels)}"
            )
    return (not evidence, evidence)


def oracle_integer_curvature_tensor(algebra, conn):
    """R(e_i, e_j) e_k = sum_m (G_jk^m G_im^l - G_ik^m G_jm^l - c_ij^m G_mk^l) e_l
    from the ``Fraction`` connection table ``conn``, summed on the numerators
    of its entries and of the structure constants (i < j; the rest by
    antisymmetry)."""
    n = algebra.dim
    rn = range(n)
    gam, dg = xl.common_denominator(x for gi in conn.gamma for gij in gi for x in gij)
    c, dc = xl.common_denominator(x for si in algebra.structure for sij in si for x in sij)
    G = [[gam[(i * n + j) * n : (i * n + j + 1) * n] for j in rn] for i in rn]
    C = [[c[(i * n + j) * n : (i * n + j + 1) * n] for j in rn] for i in rn]
    d = dg * dg * dc
    zero = (xl.zero_vector(n),) * n
    r = [[zero] * n for _ in rn]
    for i in rn:
        for j in range(i + 1, n):
            rij = []
            for k in rn:
                acc = [0] * n
                for m in rn:
                    for a, row in (
                        (dc * G[j][k][m], G[i][m]),
                        (-dc * G[i][k][m], G[j][m]),
                        (-dg * C[i][j][m], G[m][k]),
                    ):
                        if a:
                            for l in rn:
                                acc[l] += a * row[l]
                rij.append(acc)
            r[i][j] = tuple(tuple(Fraction(x, d) for x in row) for row in rij)
            r[j][i] = tuple(tuple(Fraction(-x, d) for x in row) for row in rij)
    return CurvatureTable(r=tuple(tuple(row) for row in r))
