"""Left-invariant Riemannian geometry evaluated at the identity.

For a left-invariant metric everything reduces to exact linear algebra on the
Lie algebra.  With the lowered structure constants c_ijk = g([e_i, e_j], e_k),
the Koszul formula in index form (Milnor, *Curvatures of left invariant
metrics on Lie groups*, Adv. Math. 21, 1976) gives the Levi-Civita connection

    2 g(nabla_{e_i} e_j, e_k) = c_ijk - c_jki + c_kij,

equivalently nabla_u v = ( [u,v] - ad*_u v - ad*_v u ) / 2 with ad*_v the
g-transpose of ad_v, and the curvature operator is

    R(u,v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.

The connection table, the curvature table and its trilinear extension are
summed in Python ints: each input table is written as integer numerators
over its least common denominator (``exactlinalg.common_denominator``), and
one ``Fraction`` is built per output entry.  Sectional curvature
K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2) is an exact rational for
exact inputs.
"""

from __future__ import annotations

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

    def inner(self, u: AlgebraVector, v: AlgebraVector) -> Fraction:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("inner product operands must match the metric")
        if self.is_identity:
            return xl.dot(u, v)
        return xl.dot(u, xl.mat_vec(self.gram, v))

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


def lowered_structure(algebra: LieAlgebra, metric: MetricTensor) -> tuple[list[int], int]:
    """c_ijk = g([e_i, e_j], e_k) as flat integer numerators (index (i*n + j)*n + k)
    over one denominator."""
    n = algebra.dim
    rn = range(n)
    c, d = xl.common_denominator(x for ci in algebra.structure for cij in ci for x in cij)
    if metric.is_identity:
        return c, d
    g, dg = xl.common_denominator(x for row in metric.gram for x in row)
    c = [sum(c[ij + m] * g[m * n + k] for m in rn) for ij in range(0, n**3, n) for k in rn]
    return c, d * dg


def levi_civita(algebra: LieAlgebra, metric: MetricTensor) -> ConnectionTable:
    """Levi-Civita connection of a left-invariant metric, tabulated on the basis.

    Koszul in index form: with c_ijk = g([e_i, e_j], e_k),
    2 g(nabla_{e_i} e_j, e_k) = c_ijk - c_jki + c_kij, and raising k with the
    inverse Gram matrix gives gamma[i][j].  Caller is responsible for the
    Jacobi identity holding (see ``LieAlgebra.jacobi_check``); the formula is
    only meaningful then.
    """
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
        h, dh = xl.common_denominator(x for row in metric.inverse_gram for x in row)
        two = [sum(two[ij + k] * h[k * n + l] for k in rn) for ij in rows for l in rn]
        d *= dh
    d *= 2
    entries = [Fraction(x, d) if x else _ZERO for x in two]
    gamma = tuple(
        tuple(tuple(entries[ij : ij + n]) for ij in rows[i * n : (i + 1) * n]) for i in rn
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


def curvature_tensor(algebra: LieAlgebra, conn: ConnectionTable) -> CurvatureTable:
    """R(u,v)w from the connection table, at the identity.

    With G_ij^k = gamma[i][j][k] and c_ij^k the structure constants,
    R(e_i, e_j) e_k = sum_m (G_jk^m G_im^l - G_ik^m G_jm^l - c_ij^m G_mk^l) e_l,
    summed on integer numerators.  Only i < j is computed;
    R(e_j, e_i) = -R(e_i, e_j) and R(e_i, e_i) = 0 fill in the rest.
    """
    n = algebra.dim
    rn = range(n)
    gam, dg = xl.common_denominator(x for gi in conn.gamma for gij in gi for x in gij)
    c, dc = xl.common_denominator(x for ci in algebra.structure for cij in ci for x in cij)
    # numerator rows: G[i][j] of gamma[i][j] over dg, C[i][j] of [e_i, e_j] over dc
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
