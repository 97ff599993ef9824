"""Left-invariant Riemannian geometry evaluated at the identity.

For a left-invariant metric everything reduces to exact linear algebra on the
Lie algebra: the Levi-Civita connection comes from

    nabla_u v = ( [u,v] - ad*_u v - ad*_v u ) / 2,

where ad*_v is the g-transpose of ad_v, and the curvature operator is

    R(u,v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.

Sectional curvature K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2) is an
exact rational for exact inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra, Subspace
from .errors import DegeneratePlane, DimensionMismatch
from .exactlinalg import Matrix


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


def inner(metric: MetricTensor, u: AlgebraVector, v: AlgebraVector) -> Fraction:
    return metric.inner(u, v)


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


def levi_civita(algebra: LieAlgebra, metric: MetricTensor) -> ConnectionTable:
    """Levi-Civita connection of a left-invariant metric, tabulated on the basis.

    Caller is responsible for the Jacobi identity holding (see
    ``LieAlgebra.jacobi_check``); the formula is only meaningful then.
    """
    n = algebra.dim
    stars = [ad_star(algebra, metric, algebra.basis_vector(i)) for i in range(n)]
    half = Fraction(1, 2)
    gamma = tuple(
        tuple(
            xl.vec_scale(
                half,
                xl.vec_sub(
                    xl.vec_sub(
                        algebra.structure[i][j],
                        xl.mat_vec(stars[i], algebra.basis_vector(j)),
                    ),
                    xl.mat_vec(stars[j], algebra.basis_vector(i)),
                ),
            )
            for j in range(n)
        )
        for i in range(n)
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
        out = [Fraction(0)] * self.dim
        for i, j, k, l, val in self._entries:
            c = u[i] * v[j] * w[k]
            if c:
                out[l] += c * val
        return tuple(out)

    @cached_property
    def _entries(self) -> tuple[tuple[int, int, int, int, Fraction], ...]:
        # sparse nonzero list; the catalog tables are mostly zeros
        items = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    for l, val in enumerate(self.r[i][j][k]):
                        if val:
                            items.append((i, j, k, l, val))
        return tuple(items)


def curvature_tensor(algebra: LieAlgebra, conn: ConnectionTable) -> CurvatureTable:
    """R(u,v)w from the connection table, at the identity.

    Only R(e_i, e_j) with i < j is computed; R(e_j, e_i) = -R(e_i, e_j) and
    R(e_i, e_i) = 0 fill in the rest.
    """
    n = algebra.dim
    e = algebra.basis()
    zero = (xl.zero_vector(n),) * n
    r = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r[i][j] = tuple(
                xl.vec_sub(
                    xl.vec_sub(
                        conn.nabla(e[i], conn.gamma[j][k]),
                        conn.nabla(e[j], conn.gamma[i][k]),
                    ),
                    conn.nabla(algebra.structure[i][j], e[k]),
                )
                for k in range(n)
            )
            r[j][i] = tuple(xl.vec_scale(-1, v) for v in r[i][j])
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
