"""Flag curvature of left-invariant Randers metrics of Douglas type.

Three equivalent routes are implemented and cross-checked:

* the general formula through the symmetric bilinear map U with
  2 g(U(V,S), R) = g([R,V],S) + g([R,S],V),
* its simplification through brackets and ad*_V,
* per-family closed forms for the three non-Berwaldian catalog cases.

In each route the expression reads

    K^F(P,V) = (g(V,V)/F(V)^2) K^g(P) + correction(V, Q) / (4 F(V)^4),

which makes every term homogeneous of degree zero in V, so the flag pole may
be given at any scale.  Bracket and ad* intermediates are exact rationals;
floats only enter through the square root inside F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra
from .classify import douglas_subspace, require_douglas
from .errors import DegenerateFlag
from .randers import RandersStructure
from .riemann import (
    CurvatureTable,
    MetricTensor,
    curvature_tensor,
    levi_civita,
    sectional_curvature,
)
from .sampling import make_rng, random_rational, random_rational_vector


@dataclass(frozen=True)
class Flag:
    """Flag pole v plus a vector u completing the plane span{u, v}."""

    v: AlgebraVector
    u: AlgebraVector

    def __post_init__(self):
        if xl.rank([self.v, self.u]) != 2:
            raise DegenerateFlag("flag pole and completion are linearly dependent")


@dataclass
class FlagCurvatureResult:
    k_f: float
    k_g: float
    correction: float
    f_value: float

    def __iter__(self):
        return iter((self.k_f, self.k_g, self.correction, self.f_value))


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


def _ad_star_on_self(
    algebra: LieAlgebra, metric: MetricTensor, v: AlgebraVector
) -> AlgebraVector:
    # ad*_V V without building the matrix: g(ad*_V V, e_k) = g(V, [V, e_k])
    t = tuple(metric.inner(v, algebra.bracket(v, e)) for e in algebra.basis())
    if metric.is_identity:
        return t
    return xl.mat_vec(metric.inverse_gram, t)


def _f_and_plane(r: RandersStructure, flag: Flag, curvature: CurvatureTable | None):
    gvv = r.metric.inner(flag.v, flag.v)
    k_g = sectional_curvature(r.algebra, r.metric, flag.u, flag.v, curvature=curvature)
    f = math.sqrt(float(gvv)) + float(r.metric.inner(r.q_field, flag.v))
    return gvv, k_g, f


def flag_curvature_deng_hou(
    r: RandersStructure, flag: Flag, curvature: CurvatureTable | None = None
) -> FlagCurvatureResult:
    """Flag curvature through the U-map route.

    correction = (3 g(U(V,V),Q)^2 - 4 F g(U(V,U(V,V)),Q)) / (4 F^4).
    Raises NotDouglas when Q is not g-orthogonal to [g, g]; the formula does
    not cover that case.
    """
    require_douglas(r)
    gvv, k_g, f = _f_and_plane(r, flag, curvature)
    m = u_map(r.algebra, r.metric, flag.v, flag.v)
    t1 = r.metric.inner(m, r.q_field)
    t2 = r.metric.inner(u_map(r.algebra, r.metric, flag.v, m), r.q_field)
    correction = (3.0 * float(t1) ** 2 - 4.0 * f * float(t2)) / (4.0 * f**4)
    k_f = float(gvv) / f**2 * float(k_g) + correction
    return FlagCurvatureResult(k_f=k_f, k_g=float(k_g), correction=correction, f_value=f)


def flag_curvature_simplified(
    r: RandersStructure, flag: Flag, curvature: CurvatureTable | None = None
) -> FlagCurvatureResult:
    """Flag curvature through brackets and ad*_V.

    correction = (3 g([Q,V],V)^2 - 2F (g([[Q,V],V],V) - g(V,[Q,ad*_V V]))) / (4 F^4).
    """
    require_douglas(r)
    gvv, k_g, f = _f_and_plane(r, flag, curvature)
    v, q = flag.v, r.q_field
    qv = r.algebra.bracket(q, v)
    t1 = r.metric.inner(qv, v)
    cubic1 = r.metric.inner(r.algebra.bracket(qv, v), v)
    advv = _ad_star_on_self(r.algebra, r.metric, v)
    cubic2 = r.metric.inner(v, r.algebra.bracket(q, advv))
    correction = (
        3.0 * float(t1) ** 2 - 2.0 * f * (float(cubic1) - float(cubic2))
    ) / (4.0 * f**4)
    k_f = float(gvv) / f**2 * float(k_g) + correction
    return FlagCurvatureResult(k_f=k_f, k_g=float(k_g), correction=correction, f_value=f)


def flag_curvature_case(
    case_id: int,
    p: float,
    q: float,
    a: float,
    b: float,
    c: float,
    d: float,
    k_g: float,
) -> float:
    """Closed-form flag curvature for the three non-Berwaldian catalog families.

    Case 2 takes Q = pZ + qW; cases 3 and 4 take Q = qX (p is unused there).
    V = aX + bY + cZ + dW and k_g is the sectional curvature of the flag
    plane.
    """
    gvv = a * a + b * b + c * c + d * d
    alpha = math.sqrt(gvv)
    if case_id == 2:
        if p * p + q * q >= 1.0:
            raise ValueError("need p^2 + q^2 < 1 for a valid Randers metric")
        f = alpha + (p * c + q * d)
        s = a * a + b * b
        numer = 3.0 * p * p * s * s + 4.0 * c * p * f * s
    elif case_id == 3:
        if abs(q) >= 1.0:
            raise ValueError("need |q| < 1 for a valid Randers metric")
        f = alpha + q * a
        s = b * b + c * c + d * d
        numer = 3.0 * q * q * s * s + 4.0 * a * q * f * s
    elif case_id == 4:
        if abs(q) >= 1.0:
            raise ValueError("need |q| < 1 for a valid Randers metric")
        f = alpha + q * a
        numer = 0.75 * q * q * (2 * b * b + c * c + d * d) ** 2 + a * q * f * (
            4 * b * b + c * c + d * d
        )
    else:
        raise ValueError(f"no closed-form flag curvature for case {case_id!r}")
    return gvv / (f * f) * k_g + numer / (4.0 * f**4)


def signs_agree(k_f, k_g, tol: float):
    """Whether K^F and K^g share their sign, elementwise on floats or arrays.

    They do when np.sign gives the same value, or when both lie within
    ``tol * max(1, |k_f|, |k_g|)`` of zero.  NaN agrees with nothing.
    """
    scale = np.maximum(1.0, np.maximum(np.abs(k_f), np.abs(k_g)))
    both_zero = (np.abs(k_f) <= tol * scale) & (np.abs(k_g) <= tol * scale)
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


def sign_analysis(
    r: RandersStructure,
    n_samples: int = 100,
    seed: int = 0,
    correction_tol: float = 1e-12,
) -> SignAnalysisReport:
    """Check sign agreement of K^F and K^g along the distinguished directions.

    Flag poles are sampled inside the Douglas subspace (span{Z,W} for the
    case-2 family, span{Q} for the one-dimensional families), where the
    correction term is expected to vanish and the two curvatures must share
    their sign.  Any sampled flag violating either condition is reported as a
    counterexample.
    """
    require_douglas(r)
    directions = douglas_subspace(r.algebra, r.metric)
    curvature = curvature_tensor(r.algebra, levi_civita(r.algebra, r.metric))
    rng = make_rng(seed, stream=2)
    samples: list[SignSample] = []
    counterexamples: list[SignSample] = []
    while len(samples) < n_samples:
        v = xl.zero_vector(r.dim)
        for b in directions.basis:
            v = xl.vec_add(v, xl.vec_scale(random_rational(rng), b))
        u = random_rational_vector(rng, r.dim)
        if xl.vec_is_zero(v) or xl.rank([v, u]) != 2:
            continue
        res = flag_curvature_simplified(r, Flag(v=v, u=u), curvature=curvature)
        scale = max(1.0, abs(res.k_f), abs(res.k_g))
        match = bool(signs_agree(res.k_f, res.k_g, correction_tol))
        sample = SignSample(
            v=v, u=u, k_f=res.k_f, k_g=res.k_g,
            correction=res.correction, sign_match=match,
        )
        samples.append(sample)
        if abs(res.correction) > correction_tol * scale or not match:
            counterexamples.append(sample)
    return SignAnalysisReport(samples=samples, counterexamples=counterexamples)
