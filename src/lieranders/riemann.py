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
output entry.  A ``MetricTensor`` computes the numerators of its Gram and
inverse Gram matrices once, and keeps the Q-independent tables of each
algebra it is used with (``MetricTensor._tables``): the lowered structure
constants, the connection numerators, the curvature entries, the lowered
[g, g] basis and the Gram and bivector forms that
``flagcurv.compile_randers`` compiles.  Each is built once, on first use,
and stored as tuples; the holder keeps no reference to the metric, so the
tables are freed with it.  The memo is the one exact source of the
connection and the curvature: ``levi_civita`` is the ``Fraction`` form of
its connection numerators, and ``sectional_curvature`` K(u,v) = g(R(u,v)v, u)
/ (g(u,u) g(v,v) - g(u,v)^2) sums its curvature entries.  The curvature sum
has one integer core, ``_curvature_numerators``: ``curvature_tensor`` turns
its output into a ``Fraction`` table, and the memo reads it straight into
sparse integer entries.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra
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

    @cached_property
    def _spaces(self) -> dict[int, _SpaceTables]:
        # id(algebra) -> the exact tables of (algebra, self); see _tables
        return {}

    def _tables(self, algebra: LieAlgebra) -> _SpaceTables:
        """The exact tables of (algebra, self), built once and kept with the metric.

        Keyed by ``id(algebra)`` and confirmed by identity, so equal but
        distinct algebras get tables of their own.  Raises DimensionMismatch
        when the algebra and the metric differ in dimension.
        """
        tables = self._spaces.get(id(algebra))
        if tables is None or tables.algebra is not algebra:
            if algebra.dim != self.dim:
                raise DimensionMismatch(f"algebra of dimension {algebra.dim}, metric of {self.dim}")
            tables = self._spaces[id(algebra)] = _SpaceTables(algebra, self)
        return tables

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
    nums, d = metric._tables(algebra).connection
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


class _SpaceTables:
    """The exact tables of one (algebra, metric) pair that do not depend on Q.

    Each is built on integer numerators the first time it is read and kept
    as nested tuples.  ``MetricTensor._tables`` holds one per algebra; the
    holder keeps the algebra and the metric's Gram numerators but not the
    metric, so the tables are freed with their metric.
    """

    def __init__(self, algebra: LieAlgebra, metric: MetricTensor):
        self.algebra = algebra
        self.identity = metric.is_identity
        self.gram = metric._gram_numerators
        self.inverse_gram = metric._inverse_gram_numerators

    @cached_property
    def lowered(self) -> tuple[tuple[int, ...], int]:
        # c_ijk = g([e_i, e_j], e_k), flat index (i*n + j)*n + k
        n = self.algebra.dim
        rn = range(n)
        c, d = self.algebra._structure_numerators
        if self.identity:
            return c, d
        g, dg = self.gram
        c = tuple(sum(c[ij + m] * g[m * n + k] for m in rn) for ij in range(0, n**3, n) for k in rn)
        return c, d * dg

    @cached_property
    def lowered_nonzeros(self) -> tuple[tuple[int, int, int, int], ...]:
        # sparse (i, j, k, numerator) view of ``lowered``
        n = self.algebra.dim
        c, _ = self.lowered
        return tuple((t // (n * n), t // n % n, t % n, x) for t, x in enumerate(c) if x)

    @cached_property
    def connection(self) -> tuple[tuple[int, ...], int]:
        # Koszul in index form: 2 gamma_ijk = c_ijk - c_jki + c_kij, k raised by G^-1
        n = self.algebra.dim
        rn = range(n)
        c, d = self.lowered
        two = [
            c[(i * n + j) * n + k] - c[(j * n + k) * n + i] + c[(k * n + i) * n + j]
            for i in rn
            for j in rn
            for k in rn
        ]
        if not self.identity:
            h, dh = self.inverse_gram
            rows = range(0, n**3, n)  # flat offset (i*n + j)*n of each (i, j) row
            two = [sum(two[ij + k] * h[k * n + l] for k in rn) for ij in rows for l in rn]
            d *= dh
        return tuple(two), 2 * d

    @cached_property
    def curvature_entries(self) -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
        rows, d = _curvature_numerators(self.algebra, *self.connection)
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

    @cached_property
    def derived_lowered(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        # G b for each basis vector b of [g, g], so that g(Q, b) = Q . (G b)
        n = self.algebra.dim
        rn = range(n)
        basis = self.algebra.derived_algebra().basis
        b, db = xl.common_denominator(x for v in basis for x in v)
        g, dg = self.gram
        rows = tuple(
            tuple(sum(g[i * n + k] * b[s + k] for k in rn) for i in rn)
            for s in range(0, len(b), n)
        )
        return rows, db * dg

    @cached_property
    def forms(self) -> tuple[tuple[tuple, int], tuple[tuple, int], tuple[tuple, int]]:
        """The Gram form on V and the bivector forms ``G2``, ``R2`` on
        w_(ij) = U_i V_j - U_j V_i, i < j: each as its nonzero
        (index, numerator) terms over one denominator.

        G2_(ij)(kl) = g_ik g_jl - g_il g_jk and R2_(ij)(kl) = -g(R(e_i,e_j)e_k, e_l),
        so that K^g = w^T R2 w / w^T G2 w.
        """
        n = self.algebra.dim
        rn = range(n)
        g, dg = self.gram
        pairs = list(itertools.combinations(rn, 2))
        pos = {pair: t for t, pair in enumerate(pairs)}
        d_r, entries = self.curvature_entries
        r2 = defaultdict(int)
        for i, j, k, l, x in entries:
            for m in range(k + 1, n):
                if g[l * n + m]:
                    r2[pos[i, j], pos[k, m]] -= x * g[l * n + m]
        g2 = {
            (s, t): g[i * n + k] * g[j * n + l] - g[i * n + l] * g[j * n + k]
            for s, (i, j) in enumerate(pairs)
            for t, (k, l) in enumerate(pairs)
        }
        gram = {(a, b): g[a * n + b] for a in rn for b in rn}
        return tuple(
            (tuple((idx, x) for idx, x in terms.items() if x), d)
            for terms, d in ((gram, dg), (g2, dg * dg), (r2, d_r * dg))
        )


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
    algebra: LieAlgebra, metric: MetricTensor, u: AlgebraVector, v: AlgebraVector
) -> Fraction:
    """Exact sectional curvature of the plane span{u, v}.

    R(u, v)v = sum_{i<j} (u_i v_j - u_j v_i) v_k R_ijk^l e_l, summed in Python
    ints over the curvature entries kept with the metric; the bivector forms
    of ``flagcurv`` are not read, so this checks them independently.
    """
    denom = metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2
    if denom == 0:
        raise DegeneratePlane("u and v are linearly dependent")
    d, entries = metric._tables(algebra).curvature_entries
    (un, du), (vn, dv) = map(xl.common_denominator, (u, v))
    out = [0] * algebra.dim
    for i, j, k, l, x in entries:
        out[l] += (un[i] * vn[j] - un[j] * vn[i]) * vn[k] * x
    d *= du * dv * dv
    return metric.inner(tuple(Fraction(x, d) for x in out), u) / denom
