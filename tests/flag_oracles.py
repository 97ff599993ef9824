"""Independent flag-curvature routes, kept as oracles for the compiled one.

``bracket_terms`` and ``oracle_flag_curvature_simplified`` evaluate the
Douglas correction through brackets and ad*_V V, one ``Fraction`` at a time
(``oracle_bracket``, ``oracle_inner``), with ``oracle_sectional_curvature``
for K^g.  ``flag_curvature_case`` is the closed form of the three
non-Berwaldian catalog families.
"""

import math

from lieranders.classify import require_douglas
from lieranders.flagcurv import FlagCurvatureResult

from exact_oracles import mat_vec, oracle_bracket, oracle_inner, oracle_sectional_curvature


def ad_star_on_self(algebra, metric, v):
    # ad*_V V without building the matrix: g(ad*_V V, e_k) = g(V, [V, e_k])
    t = tuple(oracle_inner(metric, v, oracle_bracket(algebra, v, e)) for e in algebra.basis())
    return mat_vec(metric.inverse_gram, t)


def bracket_terms(r, v):
    """Exact g([Q,V],V), g([[Q,V],V],V) and g(V,[Q,ad*_V V]).

    The first is A(V); the difference of the other two is C(V).
    """
    a, m, q = r.algebra, r.metric, r.q_field
    qv = oracle_bracket(a, q, v)
    cubic1 = oracle_inner(m, oracle_bracket(a, qv, v), v)
    cubic2 = oracle_inner(m, v, oracle_bracket(a, q, ad_star_on_self(a, m, v)))
    return oracle_inner(m, qv, v), cubic1, cubic2


def oracle_flag_curvature_simplified(r, flag, curvature=None):
    """Flag curvature through brackets and ad*_V, term by term.

    correction = (3 g([Q,V],V)^2 - 2F (g([[Q,V],V],V) - g(V,[Q,ad*_V V]))) / (4 F^4).
    """
    require_douglas(r)
    gvv = oracle_inner(r.metric, flag.v, flag.v)
    k_g = oracle_sectional_curvature(r.algebra, r.metric, flag.u, flag.v, curvature=curvature)
    f = math.sqrt(float(gvv)) + float(oracle_inner(r.metric, r.q_field, flag.v))
    t1, cubic1, cubic2 = bracket_terms(r, flag.v)
    correction = (
        3.0 * float(t1) ** 2 - 2.0 * f * (float(cubic1) - float(cubic2))
    ) / (4.0 * f**4)
    k_f = float(gvv) / f**2 * float(k_g) + correction
    return FlagCurvatureResult(k_f=k_f, k_g=float(k_g), correction=correction, f_value=f)


def flag_curvature_case(case_id, p, q, a, b, c, d, k_g):
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
