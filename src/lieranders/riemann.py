"""Left-invariant Riemannian geometry evaluated at the identity.

For a left-invariant metric everything reduces to exact linear algebra on the
Lie algebra.  With the lowered structure constants c_ijk = g([e_i, e_j], e_k),
the Koszul formula in index form (Milnor, *Curvatures of left invariant
metrics on Lie groups*, Adv. Math. 21, 1976) gives the Levi-Civita connection

    2 g(nabla_{e_i} e_j, e_k) = c_ijk - c_jki + c_kij,

equivalently nabla_u v = ( [u,v] - ad*_u v - ad*_v u ) / 2 with ad*_v the
g-transpose of ad_v, and the curvature operator is

    R(u,v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.

The inner product, the connection table, the curvature table and its
trilinear extension are summed in Python ints: each input table is written
as integer numerators over its least common denominator
(``exactlinalg.common_denominator``), and one ``Fraction`` is built per
output entry.  The curvature sum has one integer core,
``_curvature_numerators``: ``curvature_tensor`` turns its output into the
``Fraction`` table, and ``_curvature_entries`` reads it straight from the
connection numerators into the sparse integer entries that
``flagcurv.compile_randers`` compiles, building no ``Fraction`` table on the
way.  A ``MetricTensor`` computes the numerators of its Gram and
inverse Gram matrices once.  Sectional curvature
K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2) is an exact rational for
exact inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra, Subspace
from .errors import DegeneratePlane, DimensionMismatch
from .exactlinalg import Matrix

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive-definite Gram matrix on the algebra basis."""

    gram: Matrix

    def __post_init__(self):
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise DimensionMismatch("gram matrix must be square")
        if self.gram != xl.transpose(self.gram):
            raise ValueError("gram matrix must be symmetric")
        # exact Sylvester criterion: no tolerance needed on rational input
        if any(m <= 0 for m in xl.leading_principal_minors(self.gram)):
            raise ValueError("gram matrix must be positive definite")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def inverse_gram(self) -> Matrix:
        return xl.inverse(self.gram)

    @cached_property
    def is_identity(self) -> bool:
        return self.gram == xl.identity_matrix(self.dim)

    @cached_property
    def _gram_numerators(self) -> tuple[tuple[int, ...], int]:
        # G as flat integer numerators (index i*n + j) over one denominator
        nums, d = xl.common_denominator(x for row in self.gram for x in row)
        return tuple(nums), d

    @cached_property
    def _inverse_gram_numerators(self) -> tuple[tuple[int, ...], int]:
        nums, d = xl.common_denominator(x for row in self.inverse_gram for x in row)
        return tuple(nums), d

    def inner(self, u: AlgebraVector, v: AlgebraVector) -> Fraction:
        """g(u, v) = u^T G v, summed in Python ints over the Gram numerators
        and those of ``u`` and ``v``; one ``Fraction`` is built."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("inner product operands must match the metric")
        (un, du), (vn, dv) = map(xl.common_denominator, (u, v))
        if self.is_identity:
            return Fraction(sum(a * b for a, b in zip(un, vn)), du * dv)
        g, dg = self._gram_numerators
        n = self.dim
        total = sum(a * g[i * n + j] * b for i, a in enumerate(un) if a for j, b in enumerate(vn))
        return Fraction(total, du * dv * dg)

    def norm_squared(self, u: AlgebraVector) -> Fraction:
        return self.inner(u, u)


def identity_metric(dim: int) -> MetricTensor:
    """Orthonormal-basis metric, the standing choice for the catalog."""
    return MetricTensor(gram=xl.identity_matrix(dim))


def ad_star(algebra: LieAlgebra, metric: MetricTensor, v: AlgebraVector) -> Matrix:
    """Matrix A with g(A w, s) = g(w, [v, s]) for all w, s.

    Equals G^-1 (ad_v)^T G; reduces to the plain transpose on an orthonormal
    basis.
    """
    ad_t = xl.transpose(algebra.ad(v))
    if metric.is_identity:
        return ad_t
    return xl.mat_mul(metric.inverse_gram, xl.mat_mul(ad_t, metric.gram))


@dataclass(frozen=True)
class ConnectionTable:
    """gamma[i][j] = nabla_{e_i} e_j, extended bilinearly by :meth:`nabla`."""

    gamma: tuple[tuple[AlgebraVector, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def nabla(self, u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if not u[i]:
                continue
            for j in range(self.dim):
                if not v[j]:
                    continue
                coeff = u[i] * v[j]
                for k, c in enumerate(self.gamma[i][j]):
                    if c:
                        out[k] += coeff * c
        return tuple(out)


def lowered_structure(algebra: LieAlgebra, metric: MetricTensor) -> tuple[Sequence[int], int]:
    """c_ijk = g([e_i, e_j], e_k) as flat integer numerators (index (i*n + j)*n + k)
    over one denominator."""
    n = algebra.dim
    rn = range(n)
    c, d = algebra._structure_numerators
    if metric.is_identity:
        return c, d
    g, dg = metric._gram_numerators
    c = [sum(c[ij + m] * g[m * n + k] for m in rn) for ij in range(0, n**3, n) for k in rn]
    return c, d * dg


def _connection_numerators(algebra: LieAlgebra, metric: MetricTensor) -> tuple[list[int], int]:
    """gamma_ij^k, the e_k coordinate of nabla_{e_i} e_j, as flat integer
    numerators (index (i*n + j)*n + k) over one denominator."""
    n = algebra.dim
    rn = range(n)
    rows = range(0, n**3, n)  # flat offset (i*n + j)*n of each (i, j) row
    c, d = lowered_structure(algebra, metric)
    two = [
        c[(i * n + j) * n + k] - c[(j * n + k) * n + i] + c[(k * n + i) * n + j]
        for i in rn
        for j in rn
        for k in rn
    ]
    if not metric.is_identity:
        h, dh = metric._inverse_gram_numerators
        two = [sum(two[ij + k] * h[k * n + l] for k in rn) for ij in rows for l in rn]
        d *= dh
    return two, 2 * d


def levi_civita(algebra: LieAlgebra, metric: MetricTensor) -> ConnectionTable:
    """Levi-Civita connection of a left-invariant metric, tabulated on the basis.

    Koszul in index form: with c_ijk = g([e_i, e_j], e_k),
    2 g(nabla_{e_i} e_j, e_k) = c_ijk - c_jki + c_kij, and raising k with the
    inverse Gram matrix gives gamma[i][j].  Caller is responsible for the
    Jacobi identity holding (see ``LieAlgebra.jacobi_check``); the formula is
    only meaningful then.
    """
    n = algebra.dim
    rows = range(0, n**3, n)  # flat offset (i*n + j)*n of each (i, j) row
    nums, d = _connection_numerators(algebra, metric)
    entries = [Fraction(x, d) if x else _ZERO for x in nums]
    gamma = tuple(
        tuple(tuple(entries[ij : ij + n]) for ij in rows[i * n : (i + 1) * n]) for i in range(n)
    )
    return ConnectionTable(gamma=gamma)


@dataclass(frozen=True)
class CurvatureTable:
    """r[i][j][k] = R(e_i, e_j) e_k, extended trilinearly."""

    r: tuple[tuple[tuple[AlgebraVector, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.r)

    def of(self, u: AlgebraVector, v: AlgebraVector, w: AlgebraVector) -> AlgebraVector:
        d, entries = self._entries
        (un, du), (vn, dv), (wn, dw) = map(xl.common_denominator, (u, v, w))
        out = [0] * self.dim
        for i, j, k, l, val in entries:
            c = un[i] * vn[j] * wn[k]
            if c:
                out[l] += c * val
        d *= du * dv * dw
        return tuple(Fraction(x, d) if x else _ZERO for x in out)

    @cached_property
    def _entries(self) -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
        # sparse nonzero list, numerators over one denominator; the catalog
        # tables are mostly zeros
        n = self.dim
        index = [
            (i, j, k, l)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
            if self.r[i][j][k][l]
        ]
        nums, d = xl.common_denominator(self.r[i][j][k][l] for i, j, k, l in index)
        return d, tuple((*ijkl, x) for ijkl, x in zip(index, nums))


def _curvature_numerators(
    algebra: LieAlgebra, gam: Sequence[int], dg: int
) -> tuple[dict[tuple[int, int], list[list[int]]], int]:
    """R(e_i, e_j) e_k for i < j on integer numerators over one denominator.

    ``gam`` holds the connection numerators G_ij^k (flat index
    (i*n + j)*n + k) over ``dg``; with c_ij^k the structure constants,
    R(e_i, e_j) e_k = sum_m (G_jk^m G_im^l - G_ik^m G_jm^l - c_ij^m G_mk^l) e_l.
    Returns {(i, j): rows} with rows[k][l] the e_l numerator, and the
    denominator.  R(e_j, e_i) = -R(e_i, e_j) and R(e_i, e_i) = 0.
    """
    n = algebra.dim
    rn = range(n)
    c, dc = algebra._structure_numerators
    # numerator rows: G[i][j] of gamma[i][j] over dg, C[i][j] of [e_i, e_j] over dc
    G = [[gam[(i * n + j) * n : (i * n + j + 1) * n] for j in rn] for i in rn]
    C = [[c[(i * n + j) * n : (i * n + j + 1) * n] for j in rn] for i in rn]
    out = {}
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
            out[i, j] = rij
    return out, dg * dg * dc


def _curvature_entries(
    algebra: LieAlgebra, metric: MetricTensor
) -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
    """The nonzero R_ijk^l with i < j, as (i, j, k, l, numerator) over the
    least common denominator: ``CurvatureTable._entries`` restricted to
    i < j, read from the integer connection numerators without building a
    ``Fraction`` table."""
    rows, d = _curvature_numerators(algebra, *_connection_numerators(algebra, metric))
    entries = [
        (i, j, k, l, x)
        for (i, j), rij in rows.items()
        for k, row in enumerate(rij)
        for l, x in enumerate(row)
        if x
    ]
    # dividing out gcd(d, numerators) leaves the least common denominator
    g = math.gcd(d, *(e[4] for e in entries))
    return d // g, tuple((i, j, k, l, x // g) for i, j, k, l, x in entries)


def curvature_tensor(algebra: LieAlgebra, conn: ConnectionTable) -> CurvatureTable:
    """R(u,v)w from the connection table, at the identity.

    The table is the ``Fraction`` form of :func:`_curvature_numerators` on
    the numerators of ``conn``; only i < j is computed and
    R(e_j, e_i) = -R(e_i, e_j), R(e_i, e_i) = 0 fill in the rest.
    """
    n = algebra.dim
    gam, dg = xl.common_denominator(x for gi in conn.gamma for gij in gi for x in gij)
    rows, d = _curvature_numerators(algebra, gam, dg)
    zero = (xl.zero_vector(n),) * n
    r = [[zero] * n for _ in range(n)]
    for (i, j), rij in rows.items():
        r[i][j] = tuple(tuple(Fraction(x, d) if x else _ZERO for x in row) for row in rij)
        r[j][i] = tuple(tuple(Fraction(-x, d) if x else _ZERO for x in row) for row in rij)
    return CurvatureTable(r=tuple(tuple(row) for row in r))


def sectional_curvature(
    algebra: LieAlgebra,
    metric: MetricTensor,
    u: AlgebraVector,
    v: AlgebraVector,
    curvature: CurvatureTable | None = None,
) -> Fraction:
    """Exact sectional curvature of the plane span{u, v}.

    Pass a precomputed ``curvature`` table when evaluating many planes of the
    same space.
    """
    denom = metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2
    if denom == 0:
        raise DegeneratePlane("u and v are linearly dependent")
    if curvature is None:
        curvature = curvature_tensor(algebra, levi_civita(algebra, metric))
    return metric.inner(curvature.of(u, v, v), u) / denom


def orthogonal_complement(metric: MetricTensor, subspace: Subspace) -> Subspace:
    """g-orthogonal complement, in canonical form."""
    if not subspace.basis:
        return Subspace.span(
            [xl.basis_vector(subspace.ambient_dim, i) for i in range(subspace.ambient_dim)],
            subspace.ambient_dim,
        )
    constraints = tuple(xl.mat_vec(metric.gram, b) for b in subspace.basis)
    return Subspace(ambient_dim=subspace.ambient_dim, basis=xl.nullspace(constraints))
