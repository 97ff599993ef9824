"""Randers metric construction, and the float oracles of ``finsler_oracles``:
evaluation of F and the closed-form fundamental tensor."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieranders import Flag, MetricTensor, RandersStructure, catalog, make_randers
from lieranders import exactlinalg as xl
from lieranders.errors import DimensionMismatch, NormTooLarge
from lieranders.sweep import make_rng

from conftest import dense_metric, fr, mat, sphere_directions
from finsler_oracles import ZeroDirection, eval_F, fundamental_tensor, g_V

X = fr(1, 0, 0, 0)
ZERO_Q = fr(0, 0, 0, 0)
REL_TOL = 1e-12  # of the largest term; the closed form has rounding error only
DENSE = dense_metric(4)


@pytest.fixture(scope="module")
def abelian(metric4=None):
    from lieranders import identity_metric

    return catalog(0), identity_metric(4)


def test_make_randers_valid(abelian):
    a, m = abelian
    r = make_randers(a, m, fr(0, 0, "1/2", 0))
    assert r.norm_q_squared == Fraction(1, 4)


def test_make_randers_boundary_rejected(abelian):
    a, m = abelian
    with pytest.raises(NormTooLarge) as exc:
        make_randers(a, m, fr(0, 0, 1, 0))
    assert exc.value.norm_squared == 1


def test_make_randers_zero_q_is_riemannian(abelian):
    a, m = abelian
    r = make_randers(a, m, ZERO_Q)
    assert r.norm_q_squared == 0


def test_randers_structure_checks_its_own_invariant(abelian):
    # built directly, not through make_randers: g(Q, Q) = 9 must be refused
    a, m = catalog(2), abelian[1]
    with pytest.raises(NormTooLarge) as exc:
        RandersStructure(algebra=a, metric=m, q_field=fr(0, 0, 3, 0))
    assert exc.value.norm_squared == 9
    with pytest.raises(DimensionMismatch):
        RandersStructure(algebra=a, metric=m, q_field=fr(0, 0, "1/2"))
    r = RandersStructure(algebra=a, metric=m, q_field=fr(0, 0, "1/2", 0))
    assert r.norm_q_squared == Fraction(1, 4)
    assert r == make_randers(a, m, fr(0, 0, "1/2", 0))
    # g(Q, Q) is computed, never taken from the caller
    with pytest.raises(TypeError):
        RandersStructure(
            algebra=a, metric=m, q_field=fr(0, 0, 3, 0), norm_q_squared=Fraction(1, 4)
        )


def test_make_randers_general_metric():
    a = catalog(0)
    m = MetricTensor(gram=mat([[4, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    # coordinate norm 1/2 but g-norm 1: rejected
    with pytest.raises(NormTooLarge):
        make_randers(a, m, fr("1/2", 0, 0, 0))


def test_eval_F_spot_values(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("1/2", 0, 0, 0))
    assert eval_F(r, X) == pytest.approx(1.5, abs=0)
    assert eval_F(r, fr(-1, 0, 0, 0)) == pytest.approx(0.5, abs=0)
    assert eval_F(r, ZERO_Q) == 0.0


@given(lam=st.fractions(min_value="1/10", max_value=10, max_denominator=10))
def test_eval_F_homogeneity_squared(lam, abelian):
    a, m = abelian
    r = make_randers(a, m, fr(0, "1/3", "1/3", 0))
    y = fr(2, -1, "1/2", 3)
    ly = xl.vec_scale(lam, y)
    f1 = eval_F(r, y) ** 2
    f2 = eval_F(r, ly) ** 2
    assert f2 == pytest.approx(float(lam) ** 2 * f1, rel=1e-12)


def test_eval_F_positive_on_samples(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("9/10", 0, 0, 0))
    for y in sphere_directions(200, 4, seed=5):
        assert eval_F(r, y) > 0.0


def test_fundamental_tensor_riemannian_case(abelian):
    a, _ = abelian
    gram = mat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    m = MetricTensor(gram=gram)
    r = make_randers(a, m, ZERO_Q)
    got = fundamental_tensor(r, [0.4, -1.2, 0.3, 0.9])
    expected = np.array([[float(x) for x in row] for row in gram])
    assert np.abs(got - expected).max() <= REL_TOL * np.abs(expected).max()


def test_fundamental_tensor_zero_direction(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("1/2", 0, 0, 0))
    with pytest.raises(ZeroDirection):
        fundamental_tensor(r, [0.0, 0.0, 0.0, 0.0])


def test_fundamental_tensor_positive_definite(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("1/2", 0, 0, 0))
    g = fundamental_tensor(r, fr(0, 1, 0, 0))
    assert (g == g.T).all()
    assert np.linalg.eigvalsh(g)[0] > 0


def test_fundamental_tensor_near_validity_boundary(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("99/100", 0, 0, 0))  # |Q|^2 = 0.9801
    for y in sphere_directions(100, 4, seed=9):
        assert np.linalg.eigvalsh(fundamental_tensor(r, y))[0] > 0


def test_g_V_riemannian_reduces_to_inner(abelian):
    a, m = abelian
    r = make_randers(a, m, ZERO_Q)
    rng = make_rng(13)
    for _ in range(5):
        v = rng.uniform(-2, 2, size=4)
        u = rng.uniform(-2, 2, size=4)
        w = rng.uniform(-2, 2, size=4)
        if np.linalg.norm(v) < 0.1:
            continue
        tol = REL_TOL * max(1.0, float(np.linalg.norm(u) * np.linalg.norm(w)))
        assert g_V(r, v, u, w) == pytest.approx(float(u @ w), abs=tol)


def test_g_V_euler_identity(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("1/3", "1/3", 0, "1/2"))
    rng = make_rng(17)
    for _ in range(10):
        v = rng.uniform(-2, 2, size=4)
        if np.linalg.norm(v) < 0.1:
            continue
        f2 = eval_F(r, v) ** 2
        assert g_V(r, v, v, v) == pytest.approx(f2, rel=REL_TOL)


def test_g_V_symmetry(abelian):
    a, m = abelian
    r = make_randers(a, m, fr(0, "1/2", "1/4", 0))
    rng = make_rng(19)
    for _ in range(10):
        v = rng.uniform(-2, 2, size=4)
        u = rng.uniform(-2, 2, size=4)
        w = rng.uniform(-2, 2, size=4)
        if np.linalg.norm(v) < 0.1:
            continue
        left = g_V(r, v, u, w)
        right = g_V(r, v, w, u)
        assert left == pytest.approx(right, abs=REL_TOL * max(1.0, abs(left)))


def test_g_V_zero_pole_rejected(abelian):
    a, m = abelian
    r = make_randers(a, m, fr("1/2", 0, 0, 0))
    with pytest.raises(ZeroDirection):
        g_V(r, [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0])


def _half_hessian_of_f_squared(r, y, h=1e-4):
    # central-difference oracle for (1/2) d^2 F^2 / dy_i dy_j; error ~ h^2 + eps/h^2
    y = np.asarray(y, dtype=float)
    eye = np.eye(len(y))

    def f2(z):
        return eval_F(r, z) ** 2

    return np.array([
        [
            (f2(y + h * (a + b)) - f2(y + h * (a - b)) - f2(y - h * (a - b)) + f2(y - h * (a + b)))
            / (8 * h * h)
            for b in eye
        ]
        for a in eye
    ])


@pytest.mark.parametrize("metric_name", ["identity", "dense"])
def test_fundamental_tensor_is_half_hessian_of_f_squared(metric_name, abelian):
    a, identity = abelian
    m = identity if metric_name == "identity" else DENSE
    r = make_randers(a, m, fr("1/3", "-1/4", 0, "1/5"))
    rng = make_rng(23)
    for _ in range(5):
        y = rng.uniform(-1, 1, size=4)
        got = fundamental_tensor(r, y)
        assert np.abs(got - _half_hessian_of_f_squared(r, y)).max() <= 1e-6 * np.abs(got).max()


def test_fundamental_tensor_euler_row(abelian):
    # g_y(y, w) = F(y) dF_y(w), with dF_y(w) = g(y, w)/alpha + g(Q, w)
    a, _ = abelian
    q = fr("1/3", "-1/4", 0, "1/5")
    r = make_randers(a, DENSE, q)
    gram = np.array(DENSE.gram, dtype=float)
    b = gram @ np.array(q, dtype=float)
    rng = make_rng(29)
    for _ in range(10):
        y = rng.uniform(-2, 2, size=4)
        alpha = math.sqrt(y @ gram @ y)
        want = eval_F(r, y) * (gram @ y / alpha + b)
        got = np.asarray(y) @ fundamental_tensor(r, y)
        assert np.abs(got - want).max() <= REL_TOL * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "str"])
def test_non_rational_input_rejected_where_it_enters(bad, abelian):
    # a TypeError naming the value, not an AttributeError on first use
    message = re.escape(f"refusing to coerce {type(bad).__name__} {bad!r} to an exact rational")
    with pytest.raises(TypeError, match=message):
        make_randers(catalog(2), abelian[1], (0, 0, bad, 0))
    with pytest.raises(TypeError, match=message):
        Flag(v=(bad, 0, 0, 0), u=(0, 1, 0, 0))
    with pytest.raises(TypeError, match=message):
        MetricTensor(gram=((2, 0), (0, bad)))
