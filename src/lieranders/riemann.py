"""Left-invariant Riemannian geometry evaluated at the identity.

For a left-invariant metric everything reduces to exact linear algebra on the
Lie algebra.  With the lowered structure constants c_ijk = g([e_i, e_j], e_k),
the Koszul formula in index form (Milnor, *Curvatures of left invariant
metrics on Lie groups*, Adv. Math. 21, 1976) gives the Levi-Civita connection

    2 g(nabla_{e_i} e_j, e_k) = c_ijk - c_jki + c_kij,

equivalently nabla_u v = ( [u,v] - ad*_u v - ad*_v u ) / 2 with ad*_v the
g-transpose of ad_v, and the curvature operator is

    R(u,v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.

The inner product, the connection table and the curvature table are summed in
Python ints: each input table is written as integer numerators over its least
common denominator (``exactlinalg.integer_rows``), kept in the nested
rows of the tensor it is (c[i][j][k], g[i][j], gamma[i][j][k]) and read by
index, and one ``Fraction`` is built per output entry.  A ``MetricTensor``
computes the numerators of its Gram and inverse Gram matrices once, and keeps
the Q-independent tables of each algebra it is used with
(``MetricTensor._tables``): the connection numerators in lowest terms (built
from the lowered structure constants, which are not kept), the curvature
entries, the lowered [g, g] basis, the Douglas subspace (its g-complement) and
the two tables ``flagcurv.compile_randers`` reads, each a tuple of read-only
``IntegerForm``s of symmetric monomials: the compile base (the Gram and
bivector forms) and, per basis direction e_i, the Q-linear forms g(e_i, .),
A_i and T_i (g(Q, .), A and C at Q = e_i), which a compile contracts with Q,
all built at once from the nonzero connection rows.  Each table is built once,
on first use, and stored as tuples (the Douglas subspace as a frozen
``Subspace`` of tuples, the forms' terms as read-only mappings); the holder
keeps no reference to the metric, so the tables are freed with it.  The memo
is the one exact source of the connection and the curvature: ``levi_civita``
is the ``Fraction`` form of its connection numerators, and
``sectional_curvature`` K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2)
sums its curvature entries.  The curvature sum has one integer core,
``_curvature_numerators``, on the connection and structure rows:
``curvature_tensor`` turns its output into a ``Fraction`` table, and the memo
reads it straight into sparse integer entries.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

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
        if n < 1:
            raise DimensionMismatch("a metric needs dimension >= 1; got an empty gram matrix")
        if any(len(row) != n for row in self.gram):
            raise DimensionMismatch("gram matrix must be square")
        # kept as nested tuples, so the caller's lists stay the caller's
        object.__setattr__(self, "gram", tuple(map(tuple, self.gram)))
        g, _ = self._gram_numerators  # TypeError unless every entry is an int or a Fraction
        if g != xl.transpose(g):
            raise ValueError("gram matrix must be symmetric")
        # exact Sylvester criterion: no tolerance needed on rational input
        if self.inverse_gram is None:
            raise ValueError("gram matrix must be positive definite")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def inverse_gram(self) -> Matrix:
        # None unless the Gram matrix is positive definite (see __post_init__)
        return xl.spd_inverse(self.gram)

    @cached_property
    def _gram_numerators(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        # g[i][j] as integer numerators over one denominator, in the rows of ``gram``
        return xl.integer_rows(self.gram, 2)

    @cached_property
    def _inverse_gram_numerators(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return xl.integer_rows(self.inverse_gram, 2)

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
        g, dg = self._gram_numerators
        total = sum(a * sum(map(mul, gi, vn)) for a, gi in zip(un, g) if a)
        return Fraction(total, du * dv * dg)


def identity_metric(dim: int) -> MetricTensor:
    """Orthonormal-basis metric, the standing choice for the catalog."""
    return MetricTensor(gram=xl.identity_matrix(dim))


@dataclass(frozen=True)
class ConnectionTable:
    """gamma[i][j] = nabla_{e_i} e_j on the basis."""

    gamma: tuple[tuple[AlgebraVector, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.gamma)


def levi_civita(algebra: LieAlgebra, metric: MetricTensor) -> ConnectionTable:
    """Levi-Civita connection of a left-invariant metric, tabulated on the basis.

    Koszul in index form: with c_ijk = g([e_i, e_j], e_k),
    2 g(nabla_{e_i} e_j, e_k) = c_ijk - c_jki + c_kij, and raising k with the
    inverse Gram matrix gives gamma[i][j].  Caller is responsible for the
    Jacobi identity holding (see ``LieAlgebra.jacobi_check``); the formula is
    only meaningful then.
    """
    gam, d = metric._tables(algebra).connection
    gamma = tuple(
        tuple(tuple(Fraction(x, d) if x else _ZERO for x in row) for row in gi) for gi in gam
    )
    return ConnectionTable(gamma=gamma)


@dataclass(frozen=True)
class CurvatureTable:
    """r[i][j][k] = R(e_i, e_j) e_k on the basis."""

    r: tuple[tuple[tuple[AlgebraVector, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.r)


def _curvature_numerators(
    algebra: LieAlgebra, G: Sequence[Sequence[Sequence[int]]], dg: int
) -> tuple[dict[tuple[int, int], list[list[int]]], int]:
    """R(e_i, e_j) e_k for i < j on integer numerators over one denominator.

    ``G`` holds the connection numerators as rows, G[i][j][k] = G_ij^k over
    ``dg``; with C[i][j][m] = c_ij^m the structure numerators,
    R(e_i, e_j) e_k = sum_m (G_jk^m G_im^l - G_ik^m G_jm^l - c_ij^m G_mk^l) e_l.
    Returns {(i, j): rows} with rows[k][l] the e_l numerator, and the
    denominator.  R(e_j, e_i) = -R(e_i, e_j) and R(e_i, e_i) = 0.
    """
    n = algebra.dim
    rn = range(n)
    C, dc = algebra._structure_numerators
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


class IntegerForm(NamedTuple):
    """sum of num * x[i] * x[j] * ... over ``terms`` {(i, j, ...): num}, over ``d``.

    Every compiled form is stored as symmetric monomials: each index tuple
    is sorted and carries one nonzero numerator, the sum of the terms of its
    permutations (``symmetric``).
    """

    terms: dict
    d: int

    @classmethod
    def symmetric(cls, terms, d: int) -> IntegerForm:
        """The form over ``d`` of the (index tuple, num) pairs ``terms`` as
        read-only symmetric monomials: {sorted index tuple: sum of the nums of
        its permutations}, zero sums left out."""
        sums = defaultdict(int)
        for idx, num in terms:
            sums[tuple(sorted(idx))] += num
        return cls(MappingProxyType({idx: x for idx, x in sums.items() if x}), d)

    def at(self, x) -> int:
        """Numerator (over ``d``) of the form at the integer point ``x``."""
        total = 0
        for idx, num in self.terms.items():
            for i in idx:
                num *= x[i]
            total += num
        return total

    def rounded(self) -> list[tuple[tuple, float]]:
        """(index tuple, its numerator rounded once as num / d) per monomial."""
        d = self.d
        return [(idx, num / d) for idx, num in self.terms.items()]


class _SpaceTables:
    """The exact tables of one (algebra, metric) pair that do not depend on Q.

    Each is built on integer numerators the first time it is read and kept
    as nested tuples, the Douglas subspace as a frozen ``Subspace``, and
    the forms of the compile base and of each basis direction
    (``directions``) as ``IntegerForm``s over read-only terms.  The
    connection is kept in lowest terms.  ``MetricTensor._tables`` holds one
    per algebra; the holder keeps the algebra and the metric's Gram
    numerators but not the metric, so the tables are freed with their
    metric.
    """

    def __init__(self, algebra: LieAlgebra, metric: MetricTensor):
        self.algebra = algebra
        self.gram = metric._gram_numerators
        self.inverse_gram = metric._inverse_gram_numerators

    @cached_property
    def connection(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
        # gamma[i][j][k] with nabla_{e_i} e_j = sum_k gamma_ijk e_k, rows over one
        # denominator.  Koszul in index form: 2 gamma_ijk = c_ijk - c_jki + c_kij,
        # with c_ijk = g([e_i, e_j], e_k), and k raised by G^-1
        rn = range(self.algebra.dim)
        c, d = self.algebra._structure_numerators
        g, dg = self.gram
        h, dh = self.inverse_gram
        low = [[[sum(c[i][j][m] * g[m][k] for m in rn) for k in rn] for j in rn] for i in rn]
        two = [[[low[i][j][k] - low[j][k][i] + low[k][i][j] for k in rn] for j in rn] for i in rn]
        raised = [[[sum(row[k] * h[k][l] for k in rn) for l in rn] for row in ti] for ti in two]
        # dividing out gcd(d, numerators) leaves the least common denominator
        d = 2 * d * dg * dh
        k = math.gcd(d, *(x for ri in raised for row in ri for x in row))
        return tuple(tuple(tuple(x // k for x in row) for row in ri) for ri in raised), d // k

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
        b, db = xl.integer_rows(self.algebra.derived_algebra().basis, 2)
        g, dg = self.gram
        return tuple(tuple(sum(map(mul, gi, bs)) for gi in g) for bs in b), db * dg

    @cached_property
    def douglas(self) -> Subspace:
        # the g-complement of [g, g]: the nullspace of the lowered rows G b
        n = self.algebra.dim
        rows, _ = self.derived_lowered
        return Subspace(n, xl.nullspace(rows, n))

    @cached_property
    def compile_base(self) -> tuple[IntegerForm, IntegerForm, IntegerForm]:
        """The Q-independent forms of every ``flagcurv.compile_randers`` of the space.

        The Gram form on V and the bivector forms ``G2``, ``R2`` on
        w_(ij) = U_i V_j - U_j V_i, i < j, each a read-only ``IntegerForm``
        of symmetric monomials over one denominator, shared by every compile
        of the space.

        G2_(ij)(kl) = g_ik g_jl - g_il g_jk and R2_(ij)(kl) = -g(R(e_i,e_j)e_k, e_l),
        so that K^g = w^T R2 w / w^T G2 w.
        """
        n = self.algebra.dim
        rn = range(n)
        g, dg = self.gram
        pairs = list(itertools.combinations(rn, 2))
        pos = {pair: t for t, pair in enumerate(pairs)}
        d_r, entries = self.curvature_entries
        r2 = [
            ((pos[i, j], pos[k, m]), -x * g[l][m])
            for i, j, k, l, x in entries
            for m in range(k + 1, n)
            if g[l][m]
        ]
        g2 = [
            ((s, t), g[i][k] * g[j][l] - g[i][l] * g[j][k])
            for s, (i, j) in enumerate(pairs)
            for t, (k, l) in enumerate(pairs)
        ]
        gram = [((a, b), g[a][b]) for a in rn for b in rn]
        return (
            IntegerForm.symmetric(gram, dg),
            IntegerForm.symmetric(g2, dg * dg),
            IntegerForm.symmetric(r2, d_r * dg),
        )

    @cached_property
    def directions(self) -> tuple[tuple[IntegerForm, IntegerForm, IntegerForm], ...]:
        """(g(e_i, .), A_i, T_i) per basis direction e_i: g(Q, .), A and C at
        Q = e_i, as read-only ``IntegerForm``s of symmetric monomials.

        With Gamma the connection numerators over dgam and g the Gram
        numerators over dg, g(e_i, .) has the terms g_im over dg,
        A_i,ab = sum_m Gamma_ab^m g_im over dgam * dg and
        T_i,abc = 2 sum_m A_i,am Gamma_bc^m over dgam^2 * dg, each sum over
        the nonzero rows of Gamma.  All three are linear in Q:
        g(Q, .) = sum_i q_i g(e_i, .), A = sum_i q_i A_i, C = sum_i q_i T_i.
        """
        gam, dgam = self.connection
        g, dg = self.gram
        rows = [((i, j), row) for i, gi in enumerate(gam) for j, row in enumerate(gi) if any(row)]
        out = []
        for gi in g:  # g(e_i, e_m) = g[i][m]
            quad = [(ab, x) for ab, row in rows if (x := sum(map(mul, row, gi)))]
            cubic = [
                ((a, *bc), 2 * x * row[m]) for (a, m), x in quad for bc, row in rows if row[m]
            ]
            out.append((
                IntegerForm.symmetric([((m,), x) for m, x in enumerate(gi)], dg),
                IntegerForm.symmetric(quad, dgam * dg),
                IntegerForm.symmetric(cubic, dgam * dgam * dg),
            ))
        return tuple(out)


def curvature_tensor(algebra: LieAlgebra, conn: ConnectionTable) -> CurvatureTable:
    """R(u,v)w from the connection table, at the identity.

    The table is the ``Fraction`` form of :func:`_curvature_numerators` on
    the numerators of ``conn``; only i < j is computed and
    R(e_j, e_i) = -R(e_i, e_j), R(e_i, e_i) = 0 fill in the rest.
    """
    n = algebra.dim
    rows, d = _curvature_numerators(algebra, *xl.integer_rows(conn.gamma, 3))
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
