"""Flag curvature of left-invariant Randers metrics of Douglas type.

The flag with pole V and plane span{U, V} has flag curvature

    K^F = g(V,V)/F^2 K^g + (3 A(V)^2 - 2 F C(V)) / (4 F^4),

with A(V) = g([Q,V],V) and C(V) = g([[Q,V],V],V) - g(V,[Q,ad*_V V]); it is
homogeneous of degree zero in V.  :func:`compile_randers`, the one production
route, compiles a structure once into integer tables over one denominator
each: ``R2``/``G2`` on bivectors w = U^V with K^g = w^T R2 w / w^T G2 w
(Milnor, *Curvatures of left invariant metrics on Lie groups*, Adv. Math. 21,
1976), the Gram matrix, g(Q,.), ``A`` and ``C``.  ``R2``, ``G2`` and the
Gram form depend only on the algebra and the metric and are read from the
tables the metric keeps; only the Q-dependent forms are built per compile.
Exact flags, sign samples and sweeps all read these coefficients; F is the
only float step.  The Deng-Hou U-map route (:func:`flag_curvature_deng_hou`)
is the oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra
from .classify import douglas_subspace, require_douglas
from .errors import DegenerateFlag, DimensionMismatch, LieRandersError
from .randers import RandersStructure
from .riemann import CurvatureTable, MetricTensor, sectional_curvature
from .sampling import _is_int, make_rng, random_rational, random_rational_vector

# K^F and K^g share their sign when both lie within SIGN_TOL of the largest
# of 1, |K^F| and |K^g|; a sampled correction that large is a counterexample.
SIGN_TOL = 1e-12


@dataclass(frozen=True)
class Flag:
    """Flag pole v plus a vector u completing the plane span{u, v}."""

    v: AlgebraVector
    u: AlgebraVector

    def __post_init__(self):
        if not xl._independent_pair(self.v, self.u):
            raise DegenerateFlag("flag pole and completion are linearly dependent")


@dataclass
class FlagCurvatureResult:
    k_f: float
    k_g: float
    correction: float
    f_value: float

    def __iter__(self):
        return iter((self.k_f, self.k_g, self.correction, self.f_value))


class IntegerForm(NamedTuple):
    """sum of num * x[i] * x[j] * ... over ``terms`` {(i, j, ...): num}, over ``d``."""

    terms: dict
    d: int

    def at(self, x) -> int:
        """Numerator (over ``d``) of the form at the integer point ``x``."""
        total = 0
        for idx, num in self.terms.items():
            for i in idx:
                num *= x[i]
            total += num
        return total

    def dense(self, *shape: int) -> np.ndarray:
        """Coefficient array; each entry is one correctly rounded ``num / d``."""
        out = np.zeros(shape)
        for idx, num in self.terms.items():
            out[idx] = num / self.d
        return out


def _form(coeffs: dict, d: int) -> IntegerForm:
    return IntegerForm({idx: x for idx, x in coeffs.items() if x}, d)


@dataclass(frozen=True)
class CompiledRanders:
    """Exact integer forms of one Randers structure of Douglas type.

    ``gram``, ``gq``, ``a`` and ``c`` give g(V,V), g(Q,V), A(V) and C(V) (not
    symmetrised) on V; ``r2`` and ``g2`` act on w_(ij) = U_i V_j - U_j V_i,
    i < j, in ``itertools.combinations`` order.
    """

    dim: int
    gram: IntegerForm
    gq: IntegerForm
    r2: IntegerForm
    g2: IntegerForm
    a: IntegerForm
    c: IntegerForm

    def exact(self, flag: Flag) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        """(g(V,V), g(Q,V), K^g, A(V), C(V)) of the flag, as exact rationals."""
        if len(flag.v) != self.dim or len(flag.u) != self.dim:
            raise DimensionMismatch("flag vectors must match the algebra dimension")
        (v, dv), (u, du) = map(xl.common_denominator, (flag.v, flag.u))
        # w = U^V over du*dv; K^g does not depend on that scale
        w = [u[i] * v[j] - u[j] * v[i] for i, j in itertools.combinations(range(self.dim), 2)]
        return (
            Fraction(self.gram.at(v), self.gram.d * dv**2),
            Fraction(self.gq.at(v), self.gq.d * dv),
            Fraction(self.r2.at(w) * self.g2.d, self.g2.at(w) * self.r2.d),
            Fraction(self.a.at(v), self.a.d * dv**2),
            Fraction(self.c.at(v), self.c.d * dv**3),
        )

    def flag(self, flag: Flag) -> FlagCurvatureResult:
        """Flag curvature of one flag; F is the only float step."""
        gvv, beta, k_g, a, c = map(float, self.exact(flag))
        f = math.sqrt(gvv) + beta
        correction = (3.0 * a**2 - 2.0 * f * c) / (4.0 * f**4)
        k_f = gvv / f**2 * k_g + correction
        return FlagCurvatureResult(k_f=k_f, k_g=k_g, correction=correction, f_value=f)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Float (R2, G2, A, C) for the sweep kernels, C as a d x d^2 array."""
        n, p = self.dim, self.dim * (self.dim - 1) // 2
        return (self.r2.dense(p, p), self.g2.dense(p, p), self.a.dense(n, n),
                self.c.dense(n, n, n).reshape(n, n * n))


def compile_randers(r: RandersStructure) -> CompiledRanders:
    """Compile a Douglas-type structure into its exact integer forms.

    With c_ijk = g([e_i,e_j],e_k) and H = G^-1: A_ab = sum_i q_i c_iab;
    C_abc = sum_m (AH)_am c_mbc - sum_k c_bka (HA)_kc, since
    [Q, e_a] = sum_m (AH)_am e_m and g(ad*_V V, e_k) = g([V, e_k], V);
    R2_(ij)(kl) = -g(R(e_i,e_j)e_k, e_l) and G2_(ij)(kl) = g_ik g_jl - g_il g_jk.
    The Gram, ``G2`` and ``R2`` forms and the lowered structure constants
    depend only on the algebra and the metric: they are built once per
    pair, on integer numerators, and kept with the metric
    (``MetricTensor._tables``).  Only g(Q,.), ``A`` and ``C`` are built per
    call.  Raises NotDouglas when Q is not g-orthogonal to [g, g].
    """
    require_douglas(r)
    n = r.dim
    rn = range(n)
    space = r.metric._tables(r.algebra)
    g, dg = space.gram
    h, dh = space.inverse_gram
    _, dc = space.lowered
    lowered = space.lowered_nonzeros
    q, dq = xl.common_denominator(r.q_field)
    quad = [[0] * n for _ in rn]
    for i, a, b, x in lowered:
        quad[a][b] += q[i] * x
    ah = [[sum(quad[a][k] * h[k * n + m] for k in rn) for m in rn] for a in rn]
    ha = [[sum(h[k * n + j] * quad[j][e] for j in rn) for e in rn] for k in rn]
    cubic = defaultdict(int)
    for m, b, e, x in lowered:
        for a in rn:
            cubic[a, b, e] += ah[a][m] * x
    for b, k, a, x in lowered:
        for e in rn:
            cubic[a, b, e] -= x * ha[k][e]
    gram, g2, r2 = (IntegerForm(dict(terms), d) for terms, d in space.forms)
    return CompiledRanders(
        dim=n,
        gram=gram,
        gq=_form({(k,): sum(q[i] * g[i * n + k] for i in rn) for k in rn}, dq * dg),
        r2=r2,
        g2=g2,
        a=_form({(a, b): quad[a][b] for a in rn for b in rn}, dq * dc),
        c=_form(cubic, dq * dc * dh * dc),
    )


def u_map(
    algebra: LieAlgebra, metric: MetricTensor, v: AlgebraVector, s: AlgebraVector
) -> AlgebraVector:
    """The unique bilinear symmetric U(v,s) with 2g(U(v,s),r) = g([r,v],s) + g([r,s],v)."""
    t = tuple(
        metric.inner(algebra.bracket(e, v), s) + metric.inner(algebra.bracket(e, s), v)
        for e in algebra.basis()
    )
    half = Fraction(1, 2)
    if metric.is_identity:
        return xl.vec_scale(half, t)
    return xl.vec_scale(half, xl.mat_vec(metric.inverse_gram, t))


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


def signs_agree(k_f, k_g):
    """Whether K^F and K^g share their sign, elementwise on floats or arrays.

    They do when np.sign gives the same value, or when both lie within
    ``SIGN_TOL * max(1, |k_f|, |k_g|)`` of zero.  NaN agrees with nothing.
    """
    scale = np.maximum(1.0, np.maximum(np.abs(k_f), np.abs(k_g)))
    both_zero = (np.abs(k_f) <= SIGN_TOL * scale) & (np.abs(k_g) <= SIGN_TOL * scale)
    return (np.sign(k_f) == np.sign(k_g)) | both_zero


@dataclass
class SignSample:
    v: AlgebraVector
    u: AlgebraVector
    k_f: float
    k_g: float
    correction: float
    sign_match: bool


@dataclass
class SignAnalysisReport:
    samples: list[SignSample]
    counterexamples: list[SignSample]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def sign_analysis(r: RandersStructure, n_samples: int = 100, seed: int = 0) -> SignAnalysisReport:
    """Check sign agreement of K^F and K^g along the distinguished directions.

    Flag poles are sampled inside the Douglas subspace, where the correction
    is expected to vanish and the two curvatures to share their sign; a flag
    violating either (beyond ``SIGN_TOL``) is a counterexample.  Raises
    LieRandersError when no flag can be drawn: dimension below 2, or
    Douglas subspace {0}, or ``n_samples`` not an integer >= 1.
    """
    if not _is_int(n_samples) or n_samples < 1:
        raise LieRandersError(f"sign analysis: n_samples must be an integer >= 1: {n_samples!r}")
    compiled = compile_randers(r)
    directions = douglas_subspace(r.algebra, r.metric)
    if r.dim < 2 or not directions.basis:
        raise LieRandersError(
            f"sign analysis: no flag to draw in dimension {r.dim} with Douglas subspace "
            f"{directions.describe(r.algebra.labels)}"
        )
    rng = make_rng(seed, stream=2)
    samples, counterexamples = [], []
    while len(samples) < n_samples:
        v = xl.zero_vector(r.dim)
        for b in directions.basis:
            v = xl.vec_add(v, xl.vec_scale(random_rational(rng), b))
        u = random_rational_vector(rng, r.dim)
        if not xl._independent_pair(v, u):
            continue
        res = compiled.flag(Flag(v=v, u=u))
        match = bool(signs_agree(res.k_f, res.k_g))
        samples.append(SignSample(v, u, res.k_f, res.k_g, res.correction, match))
        if abs(res.correction) > SIGN_TOL * max(1.0, abs(res.k_f), abs(res.k_g)) or not match:
            counterexamples.append(samples[-1])
    return SignAnalysisReport(samples=samples, counterexamples=counterexamples)
