"""Flag curvature of left-invariant Randers metrics of Douglas type.

The flag with pole V and plane span{U, V} has flag curvature

    K^F = g(V,V)/F^2 K^g + (3 A(V)^2 - 2 F C(V)) / (4 F^4),

with A(V) = g([Q,V],V) = g(nabla_V V, Q) and
C(V) = 2 g(U(V, nabla_V V), Q) = g([[Q,V],V],V) - g(V,[Q,ad*_V V]), U the
Deng-Hou U-map (:func:`u_map`); it is homogeneous of degree zero in V.
:func:`compile_randers`, the one production route, compiles a structure once
into integer forms of symmetric monomials over one denominator each:
``R2``/``G2`` on bivectors w = U^V with K^g = w^T R2 w / w^T G2 w (Milnor,
*Curvatures of left invariant metrics on Lie groups*, Adv. Math. 21, 1976),
the Gram form, g(Q,.), ``A`` and ``C``.  ``R2``, ``G2`` and the Gram form
depend only on the algebra and the metric and are read from the tables the
metric keeps.  g(Q,.), ``A`` and ``C`` are linear in Q: the same tables
keep all three at each basis direction e_i, and a compile is one
contraction of that per-direction table with Q's numerators.  Exact flags,
the float flag (each exact integer ratio rounded once), the sign
certificate and sweeps all read these coefficients; F is the only inexact
step, and no array is built here: sweeps read each form's monomials,
``IntegerForm.rounded()``, each coefficient rounded once.
:func:`sign_certificate` restricts ``A`` and ``C`` to the Douglas subspace
exactly.  The Deng-Hou U-map route (:func:`flag_curvature_deng_hou`), which
raises the U-map through the inverse Gram matrix, is the oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, truediv

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra, Subspace
from .classify import douglas_subspace, require_douglas
from .errors import DegenerateFlag, DimensionMismatch, LieRandersError
from .randers import RandersStructure
from .riemann import CurvatureTable, IntegerForm, MetricTensor, sectional_curvature


@dataclass(frozen=True)
class Flag:
    """Flag pole v plus a vector u completing the plane span{u, v}."""

    v: AlgebraVector
    u: AlgebraVector

    def __post_init__(self):
        if xl.rank((self.v, self.u)) != 2:
            raise DegenerateFlag("flag pole and completion are linearly dependent")


@dataclass
class FlagCurvatureResult:
    k_f: float
    k_g: float
    correction: float
    f_value: float

    def __iter__(self):
        return iter((self.k_f, self.k_g, self.correction, self.f_value))


@dataclass(frozen=True)
class CompiledRanders:
    """Exact integer forms of one Randers structure of Douglas type.

    ``gram``, ``gq``, ``a`` and ``c`` give g(V,V), g(Q,V), A(V) and C(V) on
    V; ``r2`` and ``g2`` act on w_(ij) = U_i V_j - U_j V_i, i < j, in
    ``itertools.combinations`` order.  Each is stored as symmetric monomials.
    """

    dim: int
    gram: IntegerForm
    gq: IntegerForm
    r2: IntegerForm
    g2: IntegerForm
    a: IntegerForm
    c: IntegerForm

    def exact(self, flag: Flag, divide=Fraction) -> tuple:
        """(g(V,V), g(Q,V), K^g, A(V), C(V)) of the flag, each ``divide(num, den)``
        of its exact integer sums: exact rationals by default, correctly
        rounded floats with ``operator.truediv`` (as ``flag`` reads them)."""
        if len(flag.v) != self.dim or len(flag.u) != self.dim:
            raise DimensionMismatch("flag vectors must match the algebra dimension")
        (v, dv), (u, du) = map(xl.common_denominator, (flag.v, flag.u))
        # w = U^V over du*dv; K^g does not depend on that scale
        w = [u[i] * v[j] - u[j] * v[i] for i, j in itertools.combinations(range(self.dim), 2)]
        return (
            divide(self.gram.at(v), self.gram.d * dv**2),
            divide(self.gq.at(v), self.gq.d * dv),
            divide(self.r2.at(w) * self.g2.d, self.g2.at(w) * self.r2.d),
            divide(self.a.at(v), self.a.d * dv**2),
            divide(self.c.at(v), self.c.d * dv**3),
        )

    def flag(self, flag: Flag) -> FlagCurvatureResult:
        """Flag curvature of one flag.  Each exact value is rounded once
        (int / int is correctly rounded, so it is the float of its
        ``Fraction``); F, the correction and K^F follow in floats."""
        gvv, beta, k_g, a, c = self.exact(flag, truediv)
        f = math.sqrt(gvv) + beta
        correction = (3.0 * a**2 - 2.0 * f * c) / (4.0 * f**4)
        k_f = gvv / f**2 * k_g + correction
        return FlagCurvatureResult(k_f=k_f, k_g=k_g, correction=correction, f_value=f)


def compile_randers(r: RandersStructure) -> CompiledRanders:
    """Compile a Douglas-type structure into its exact integer forms.

    The Q-independent forms are read from the metric's memo
    (``MetricTensor._tables``), shared by every compile of the space with
    read-only terms: the compile base (the Gram, ``G2`` and ``R2`` forms,
    R2_(ij)(kl) = -g(R(e_i,e_j)e_k, e_l) and
    G2_(ij)(kl) = g_ik g_jl - g_il g_jk) and, per basis direction e_i, the
    forms g(e_i, .), A_i and T_i of ``_SpaceTables.directions``.  As
    nabla_u v = [u,v]/2 + U(u,v), with U the Deng-Hou U-map, and Q is
    g-orthogonal to [g, g]:

        A(V) = g([Q,V],V) = g(nabla_V V, Q):  A_ij = sum_m Gamma_ij^m g(e_m, Q),
        C(V) = 2 g(U(V, nabla_V V), Q):       C_aij = 2 sum_m A_am Gamma_ij^m,

    with nabla_{e_i} e_j = sum_m Gamma_ij^m e_m.  g(Q, .), A and C are
    linear in Q, so a compile is one contraction of Q's numerators q_i with
    the direction forms: each form is sum_i q_i times its form at e_i,
    keeping the nonzero monomials, over its denominator times Q's.  The
    Douglas test is one integer dot of the same numerators per lowered
    [g, g] row; raises NotDouglas, with its exact evidence, when Q is not
    g-orthogonal to [g, g].
    """
    space = r.metric._tables(r.algebra)
    q, dq = xl.common_denominator(r.q_field)
    if any(sum(map(mul, q, row)) for row in space.derived_lowered[0]):
        require_douglas(r)  # raises, with the evidence
    gram, g2, r2 = space.compile_base
    sums = ({}, {}, {})  # g(Q, .), A and C
    for qi, forms in zip(q, space.directions):
        if qi:
            for total, form in zip(sums, forms):
                for idx, x in form.terms.items():
                    total[idx] = total.get(idx, 0) + qi * x
    gq, a, c = (  # each form has one denominator in every direction
        IntegerForm({idx: x for idx, x in total.items() if x}, form.d * dq)
        for total, form in zip(sums, space.directions[0])
    )
    return CompiledRanders(dim=r.dim, gram=gram, gq=gq, r2=r2, g2=g2, a=a, c=c)


def u_map(
    algebra: LieAlgebra, metric: MetricTensor, v: AlgebraVector, s: AlgebraVector
) -> AlgebraVector:
    """The unique bilinear symmetric U(v,s) with 2g(U(v,s),r) = g([r,v],s) + g([r,s],v)."""
    t = tuple(
        metric.inner(algebra.bracket(e, v), s) + metric.inner(algebra.bracket(e, s), v)
        for e in algebra.basis()
    )
    return tuple(sum(map(mul, row, t)) / 2 for row in metric.inverse_gram)


def flag_curvature_deng_hou(r: RandersStructure, flag: Flag) -> FlagCurvatureResult:
    """Flag curvature through the U-map route, the oracle for the compiled one.

    correction = (3 g(U(V,V),Q)^2 - 4 F g(U(V,U(V,V)),Q)) / (4 F^4), with
    K^g from ``sectional_curvature``, which reads the curvature entries the
    metric keeps but not the bivector forms the compiled route evaluates.
    Raises NotDouglas when Q is not g-orthogonal to [g, g].
    """
    require_douglas(r)
    gvv = r.metric.inner(flag.v, flag.v)
    k_g = sectional_curvature(r.algebra, r.metric, flag.u, flag.v)
    f = math.sqrt(float(gvv)) + float(r.metric.inner(r.q_field, flag.v))
    m = u_map(r.algebra, r.metric, flag.v, flag.v)
    t1 = r.metric.inner(m, r.q_field)
    t2 = r.metric.inner(u_map(r.algebra, r.metric, flag.v, m), r.q_field)
    correction = (3.0 * float(t1) ** 2 - 4.0 * f * float(t2)) / (4.0 * f**4)
    k_f = float(gvv) / f**2 * float(k_g) + correction
    return FlagCurvatureResult(k_f=k_f, k_g=float(k_g), correction=correction, f_value=f)


def flag_curvature_simplified(
    r: RandersStructure, flag: Flag, curvature: CurvatureTable | None = None
) -> FlagCurvatureResult:
    """Flag curvature of one flag: ``compile_randers(r).flag(flag)``.

    ``curvature`` is not read: the compile takes the curvature from the
    tables memoised with the metric, which equal any table of the same
    space.  The parameter stays because existing callers pass a prebuilt
    table (the benchmark's ``flag_cached`` class among them), and removing
    it would turn those calls into TypeErrors.
    """
    return compile_randers(r).flag(flag)


@dataclass(frozen=True)
class SignCertificate:
    """The correction forms A and C restricted to the Douglas subspace D.

    ``a`` and ``c`` map each monomial of t, a sorted tuple of indices s, to
    its nonzero coefficient at V = sum_s t_s b_s, b_s the integer numerators
    of D's basis rows.  ``ok`` means both are empty: the correction vanishes
    on every pole in D, so there K^F = g(V,V)/F^2 K^g with F > 0.
    """

    douglas: Subspace
    a: dict
    c: dict

    @property
    def ok(self) -> bool:
        return not self.a and not self.c


def _restrict(form: IntegerForm, rows: list[list[int]]) -> dict:
    """Nonzero coefficients of ``form`` at x = sum_s t_s rows[s], by monomial of t."""
    out = defaultdict(int)
    for idx, num in form.terms.items():
        for ss in itertools.product(range(len(rows)), repeat=len(idx)):
            term = num
            for i, s in zip(idx, ss):
                term *= rows[s][i]
            out[tuple(sorted(ss))] += term
    return {key: Fraction(x, form.d) for key, x in out.items() if x}


def sign_certificate(r: RandersStructure) -> SignCertificate:
    """Exact certificate that K^F and K^g share their sign on poles in D.

    For V in D = [g, g]^perp, [Q,V], [[Q,V],V] and [Q, ad*_V V] lie in
    [g, g], so A(V) and both terms of C(V) pair V with a vector of [g, g]
    and vanish.  The certificate checks this on the compiled forms,
    restricted to D exactly.  Raises NotDouglas when Q is not g-orthogonal
    to [g, g], and LieRandersError when no flag has its pole in D:
    dimension below 2, or D = {0}.
    """
    compiled = compile_randers(r)
    douglas = douglas_subspace(r.algebra, r.metric)
    if r.dim < 2 or not douglas.basis:
        raise LieRandersError(
            f"sign certificate: no flag pole in dimension {r.dim} with Douglas subspace "
            f"{douglas.describe(r.algebra.labels)}"
        )
    rows = [xl.common_denominator(b)[0] for b in douglas.basis]
    return SignCertificate(douglas, _restrict(compiled.a, rows), _restrict(compiled.c, rows))
