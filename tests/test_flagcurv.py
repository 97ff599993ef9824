"""Flag curvature: U-map, the compiled route, the oracle routes, signs."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from lieranders import (
    Flag,
    LieAlgebra,
    catalog,
    flag_curvature_deng_hou,
    flag_curvature_simplified,
    identity_metric,
    make_randers,
    sectional_curvature,
    sign_analysis,
    u_map,
)
from lieranders import exactlinalg as xl
from lieranders.errors import DegenerateFlag, LieRandersError, NotDouglas
from lieranders.flagcurv import signs_agree
from lieranders.riemann import MetricTensor, curvature_tensor, levi_civita
from lieranders.sampling import (
    make_rng,
    random_flag_pair,
    random_q_in_subspace,
    random_rational_vector,
)
from lieranders.classify import douglas_subspace

from conftest import SO3, deadline, fr
from flag_oracles import flag_curvature_case, oracle_flag_curvature_simplified

X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))


def test_flag_requires_independence():
    Flag(v=X, u=Y)
    Flag(v=fr(1, "2/3", 0, 0), u=fr("3/2", "1/2", 0, 0))
    for v, u in [
        (X, xl.vec_scale(Fraction(-2), X)),
        (xl.zero_vector(4), X),
        (fr(1), fr(2)),  # dimension 1
    ]:
        with pytest.raises(DegenerateFlag):
            Flag(v=v, u=u)


def test_u_map_abelian_zero(metric4):
    a = catalog(0)
    rng = make_rng(43)
    for _ in range(5):
        v = random_rational_vector(rng, 4)
        s = random_rational_vector(rng, 4)
        assert u_map(a, metric4, v, s) == fr(0, 0, 0, 0)


def test_u_map_case2_spot_value(metric4):
    assert u_map(catalog(2), metric4, X, X) == fr(0, 0, -1, 0)


def test_u_map_symmetric_bilinear(metric4):
    a = catalog(4)
    rng = make_rng(47)
    for _ in range(10):
        v = random_rational_vector(rng, 4)
        s = random_rational_vector(rng, 4)
        assert u_map(a, metric4, v, s) == u_map(a, metric4, s, v)


def test_u_map_defining_identity_generic_metric():
    # oracle: 2 g(U(v,s), r) = g([r,v],s) + g([r,s],v) for every basis r
    metric = MetricTensor(
        gram=xl.mat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]])
    )
    rng = make_rng(53)
    for cid in (1, 2, 3, 4):
        a = catalog(cid)
        v = random_rational_vector(rng, 4)
        s = random_rational_vector(rng, 4)
        u = u_map(a, metric, v, s)
        for k in range(4):
            r = a.basis_vector(k)
            assert 2 * metric.inner(u, r) == (
                metric.inner(a.bracket(r, v), s) + metric.inner(a.bracket(r, s), v)
            )


def test_riemannian_reduction(metric4):
    # Q = 0 collapses both formulas to the sectional curvature
    rng = make_rng(59)
    for cid in range(5):
        r = make_randers(catalog(cid), metric4, fr(0, 0, 0, 0))
        for _ in range(5):
            v, u = random_flag_pair(rng, 4)
            flag = Flag(v=v, u=u)
            for func in (flag_curvature_deng_hou, flag_curvature_simplified):
                res = func(r, flag)
                assert res.correction == 0.0
                assert res.k_f == pytest.approx(res.k_g, rel=1e-12, abs=0.0) or (
                    res.k_f == 0.0 and res.k_g == 0.0
                )


def test_case3_spot_value(metric4):
    r = make_randers(catalog(3), metric4, fr("1/2", 0, 0, 0))
    for u in (Y, Z, fr(0, 1, -2, 5)):
        res = flag_curvature_deng_hou(r, Flag(v=X, u=u))
        assert res.k_g == -1.0
        assert res.f_value == 1.5
        assert res.correction == 0.0
        assert res.k_f == pytest.approx(-4.0 / 9.0, rel=1e-15)


def test_not_douglas_rejected(metric4):
    r = make_randers(catalog(2), metric4, fr("1/2", 0, 0, 0))
    with pytest.raises(NotDouglas):
        flag_curvature_deng_hou(r, Flag(v=X, u=Y))
    with pytest.raises(NotDouglas):
        flag_curvature_simplified(r, Flag(v=X, u=Y))


def test_formulas_agree_on_random_flags(metric4):
    rng = make_rng(61)
    for cid in (2, 3, 4):
        a = catalog(cid)
        douglas = douglas_subspace(a, metric4)
        table = curvature_tensor(a, levi_civita(a, metric4))
        for _ in range(50):
            q = random_q_in_subspace(rng, douglas, metric4)
            r = make_randers(a, metric4, q)
            v, u = random_flag_pair(rng, 4)
            flag = Flag(v=v, u=u)
            r1 = flag_curvature_deng_hou(r, flag)
            r2 = flag_curvature_simplified(r, flag, curvature=table)
            r3 = oracle_flag_curvature_simplified(r, flag, curvature=table)
            scale = max(1.0, abs(r1.k_f))
            assert abs(r1.k_f - r2.k_f) <= 1e-9 * scale
            assert r2.k_g == r3.k_g
            assert abs(r2.k_f - r3.k_f) <= 1e-14 * scale
            # closed form: case 2 uses Q = pZ + qW, cases 3-4 use Q = qX
            p, qq = (float(q[2]), float(q[3])) if cid == 2 else (0.0, float(q[0]))
            k3 = flag_curvature_case(
                cid, p, qq, *[float(x) for x in v], k_g=r2.k_g
            )
            assert abs(k3 - r2.k_f) <= 1e-9 * scale


def test_correction_vanishes_on_douglas_pole_case2(metric4):
    # V in span{Z,W} kills every correction factor (a^2 + b^2 = 0)
    r = make_randers(catalog(2), metric4, fr(0, 0, "1/2", 0))
    res = flag_curvature_simplified(r, Flag(v=fr(0, 0, 3, -2), u=X))
    assert res.correction == 0.0
    assert res.k_f == pytest.approx(
        float(r.metric.inner(fr(0, 0, 3, -2), fr(0, 0, 3, -2)))
        / res.f_value**2
        * res.k_g,
        rel=1e-15,
    )


def test_correction_nonzero_off_corollary_directions(metric4):
    r = make_randers(catalog(2), metric4, fr(0, 0, "1/2", 0))
    res = flag_curvature_simplified(r, Flag(v=X, u=Y))
    assert res.correction != 0.0


def test_pole_scale_invariance(metric4):
    rng = make_rng(67)
    a = catalog(4)
    r = make_randers(a, metric4, fr("1/3", 0, 0, 0))
    table = curvature_tensor(a, levi_civita(a, metric4))
    for _ in range(10):
        v, u = random_flag_pair(rng, 4)
        base = flag_curvature_simplified(r, Flag(v=v, u=u), curvature=table)
        for lam in (Fraction(1, 2), Fraction(2), Fraction(10)):
            res = flag_curvature_simplified(
                r, Flag(v=xl.vec_scale(lam, v), u=u), curvature=table
            )
            assert res.k_f == pytest.approx(base.k_f, rel=1e-12)


def test_flag_u_enters_only_through_plane(metric4):
    # two completions of one plane must give identical results
    a = catalog(3)
    r = make_randers(a, metric4, fr("1/2", 0, 0, 0))
    v = fr(1, 2, 0, -1)
    u1 = fr(0, 1, 1, 0)
    u2 = xl.vec_add(xl.vec_scale(Fraction(3), u1), xl.vec_scale(Fraction(-2, 5), v))
    r1 = flag_curvature_deng_hou(r, Flag(v=v, u=u1))
    r2 = flag_curvature_deng_hou(r, Flag(v=v, u=u2))
    assert r1.k_f == pytest.approx(r2.k_f, rel=1e-12)
    assert r1.k_g == pytest.approx(r2.k_g, rel=1e-12)


def test_result_internal_consistency(metric4):
    a = catalog(2)
    r = make_randers(a, metric4, fr(0, 0, "1/3", "1/5"))
    res = flag_curvature_simplified(r, Flag(v=fr(1, 1, 1, 0), u=W))
    gvv = float(r.metric.inner(fr(1, 1, 1, 0), fr(1, 1, 1, 0)))
    recon = gvv / res.f_value**2 * res.k_g + res.correction
    assert res.k_f == pytest.approx(recon, rel=1e-12)


def test_case_formula_spot_values():
    # case 2 with p = 1/2, V = X: correction 3/16 at F = 1
    assert flag_curvature_case(2, 0.5, 0.0, 1, 0, 0, 0, k_g=0.0) == pytest.approx(3 / 16)
    # case 3 with q = 1/2, V = X, K_g = -1: K_F = -4/9
    assert flag_curvature_case(3, 0.0, 0.5, 1, 0, 0, 0, k_g=-1.0) == pytest.approx(-4 / 9)
    # case 4 with q = 1/2, V = Y: correction 3/16 at F = 1
    assert flag_curvature_case(4, 0.0, 0.5, 0, 1, 0, 0, k_g=0.0) == pytest.approx(3 / 16)


def test_case_formula_validity_checks():
    with pytest.raises(ValueError):
        flag_curvature_case(2, 0.8, 0.7, 1, 0, 0, 0, k_g=0.0)
    with pytest.raises(ValueError):
        flag_curvature_case(3, 0.0, 1.0, 1, 0, 0, 0, k_g=0.0)
    with pytest.raises(ValueError):
        flag_curvature_case(1, 0.0, 0.5, 1, 0, 0, 0, k_g=0.0)


def test_sign_analysis_case2(metric4):
    r = make_randers(catalog(2), metric4, fr(0, 0, "1/2", 0))
    report = sign_analysis(r, n_samples=60, seed=11)
    assert report.ok
    assert len(report.samples) == 60
    assert all(s.correction == 0.0 for s in report.samples)


@pytest.mark.parametrize("case_id", [3, 4])
def test_sign_analysis_pole_on_q(case_id, metric4):
    r = make_randers(catalog(case_id), metric4, fr("1/2", 0, 0, 0))
    report = sign_analysis(r, n_samples=60, seed=13)
    assert report.ok
    if case_id == 3:
        # constant negative curvature: both signs strictly negative
        assert all(s.k_f < 0 and s.k_g < 0 for s in report.samples)


@pytest.mark.parametrize("n_samples", [-1, 0, 1.5, True, False, "3", None, Fraction(2)])
def test_sign_analysis_rejects_bad_sample_count(n_samples, metric4):
    r = make_randers(catalog(2), metric4, fr(0, 0, "1/2", 0))
    message = f"n_samples must be an integer >= 1: {n_samples!r}"
    with pytest.raises(LieRandersError, match=re.escape(message)):
        sign_analysis(r, n_samples=n_samples, seed=11)


def test_sign_analysis_single_sample(metric4):
    r = make_randers(catalog(2), metric4, fr(0, 0, "1/2", 0))
    report = sign_analysis(r, n_samples=1, seed=11)
    assert len(report.samples) == 1
    assert report.samples[0] == sign_analysis(r, n_samples=60, seed=11).samples[0]


@pytest.mark.parametrize(
    "algebra, q, reason",
    [
        (SO3, fr(0, 0, 0), "dimension 3 with Douglas subspace {0}"),  # [g, g] = g
        (LieAlgebra.from_brackets(1, ("X",), {}), fr("1/2"), "dimension 1 with"),
    ],
    ids=["so3", "dim1"],
)
def test_sign_analysis_without_flags_is_rejected(algebra, q, reason):
    r = make_randers(algebra, identity_metric(algebra.dim), q)
    with deadline(10), pytest.raises(LieRandersError, match=re.escape(reason)):
        sign_analysis(r, n_samples=3, seed=1)


@pytest.mark.parametrize(
    "k_f, k_g, agree",
    [
        (0.0, 1e-300, True),
        (0.0, -1e-300, True),
        (1e-300, -1e-300, True),
        (0.0, 0.0, True),
        (5e-13, -5e-13, True),  # both within tolerance
        (2e-12, -2e-12, False),  # just outside it
        (1.0, -1.0, False),
        (-3.0, -1e-20, True),
        (-3.0, 1e-20, False),
        (float("nan"), 1.0, False),
        (float("nan"), 0.0, False),
        (float("nan"), float("nan"), False),
    ],
)
def test_signs_agree_edge_values(k_f, k_g, agree):
    assert bool(signs_agree(k_f, k_g)) is agree
    assert bool(signs_agree(k_g, k_f)) is agree
    # the elementwise rule run_sweep applies to whole columns
    column = signs_agree(np.array([k_f, 1.0]), np.array([k_g, 1.0]))
    assert column.tolist() == [agree, True]
