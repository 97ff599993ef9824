"""Float kernels and the compiled forms they read.

The compiled forms are checked exactly against ``sectional_curvature``,
``oracle_inner`` and the bracket oracle, on the kernels run over ``Fraction``
object arrays, and against the per-family closed forms coefficient by
coefficient.  The float kernels are checked against the exact bracket oracle
at the same flag, converted exactly with ``Fraction(float)``, within 1e-9 of
the largest term.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from lieranders import (
    Flag,
    catalog,
    compile_randers,
    eval_F,
    identity_metric,
    make_randers,
    sectional_curvature,
)
from lieranders import kernels
from lieranders.randers import dense_gram
from lieranders.riemann import curvature_tensor, levi_civita

from conftest import SO3, SOLV5, dense_metric, douglas_q, fr
from exact_oracles import oracle_inner
from flag_oracles import bracket_terms, flag_curvature_case, oracle_flag_curvature_simplified

TOL = 1e-9  # of the largest term (at least 1), as in the benchmark's check


def dense_douglas(algebra):
    metric = dense_metric(algebra.dim)
    return make_randers(algebra, metric, douglas_q(algebra, metric))


STRUCTURES = {
    "case2-identity": lambda: make_randers(catalog(2), identity_metric(4), fr(0, 0, "2/5", "1/5")),
    "case3-dense": lambda: dense_douglas(catalog(3)),
    "case4-dense": lambda: dense_douglas(catalog(4)),
    "so3-dense": lambda: dense_douglas(SO3),  # [g, g] = g, so Q = 0
    "solv5-identity": lambda: make_randers(SOLV5, identity_metric(5), fr("2/5", 0, 0, 0, 0)),
    "solv5-dense": lambda: dense_douglas(SOLV5),
}


def float_forms(r):
    gram = dense_gram(r.metric)
    q = np.array(r.q_field, dtype=float)
    return (gram, q, *compile_randers(r).dense())


def exact_forms(r):
    """The compiled (R2, G2, A, C) as Fraction object arrays: exact coefficients."""
    compiled = compile_randers(r)
    n, p = r.dim, r.dim * (r.dim - 1) // 2
    out = []
    for form, shape in zip(
        (compiled.r2, compiled.g2, compiled.a, compiled.c), [(p, p), (p, p), (n, n), (n, n, n)]
    ):
        coeffs = np.full(shape, Fraction(0), dtype=object)
        for idx, num in form.terms.items():
            coeffs[idx] = Fraction(num, form.d)
        out.append(coeffs)
    out[3] = out[3].reshape(n, n * n)
    return out


def obj(x):
    return np.array(x, dtype=object)


def exact_flag(row_v, row_u):
    """The flag at exactly the float sample's values."""
    return Flag(v=tuple(map(Fraction, row_v)), u=tuple(map(Fraction, row_u)))


@pytest.fixture(scope="module", params=sorted(STRUCTURES))
def setup(request):
    """Kernel columns on seeded flags, and the exact results on every 5th row."""
    r = STRUCTURES[request.param]()
    assert not r.algebra.jacobi_check()
    rng = np.random.Generator(np.random.Philox(key=[99, 0]))
    V = rng.uniform(-1, 1, size=(101, r.dim))
    U = rng.uniform(-1, 1, size=(101, r.dim))
    gram, q, r2, g2, quad, cubic = float_forms(r)
    f = kernels.eval_f_batch(gram, q, V)
    k_g = kernels.sectional_batch(r2, g2, U, V)
    corr = kernels.correction_batch(quad, cubic, V, f)
    k_f = np.einsum("ni,ij,nj->n", V, gram, V) / f**2 * k_g + corr
    table = curvature_tensor(r.algebra, levi_civita(r.algebra, r.metric))
    rows = range(0, len(V), 5)
    exact = {
        row: oracle_flag_curvature_simplified(r, exact_flag(V[row], U[row]), curvature=table)
        for row in rows
    }
    return {
        "r": r, "V": V, "U": U,
        "f": f, "k_g": k_g, "k_f": k_f, "correction": corr, "exact": exact,
    }


def assert_within_bound(setup, names):
    """Each named column within TOL of the largest term of its row."""
    for row, res in setup["exact"].items():
        got = [setup[name][row] for name in names]
        want = [getattr(res, name) for name in names]
        big = max(1.0, abs(res.k_f), abs(res.k_g), *(abs(x) for x in got + want))
        for name, a, b in zip(names, got, want):
            assert abs(a - b) <= TOL * big, (name, row, a, b)


def test_eval_f_batch_matches_scalar(setup):
    r, V, f = setup["r"], setup["V"], setup["f"]
    for row in range(0, len(V), 7):
        assert f[row] == pytest.approx(eval_F(r, V[row]), rel=1e-13)


def test_sectional_batch_matches_exact(setup):
    assert_within_bound(setup, ["k_g"])


def test_correction_batch_matches_scalar(setup):
    assert_within_bound(setup, ["correction", "k_f"])


def test_compiled_forms_are_exact(setup):
    r, V, U = setup["r"], setup["V"], setup["U"]
    compiled = compile_randers(r)
    r2, g2, quad, cubic = exact_forms(r)
    a, m = r.algebra, r.metric
    for row in range(0, len(V), 20):
        flag = exact_flag(V[row], U[row])
        k_g = sectional_curvature(a, m, flag.u, flag.v)
        t1, cubic1, cubic2 = bracket_terms(r, flag.v)
        gvv, beta, *forms = compiled.exact(flag)
        assert (gvv, beta) == (oracle_inner(m, flag.v, flag.v), oracle_inner(m, r.q_field, flag.v))
        assert forms == [k_g, t1, cubic1 - cubic2]
        # the dense layout the kernels read, on exact object arrays
        v, u = obj(flag.v)[None], obj(flag.u)[None]
        assert kernels.sectional_batch(r2, g2, u, v)[0] == k_g
        assert ((v @ quad) * v).sum() == t1
        vv = (v[:, :, None] * v[:, None, :]).reshape(1, -1)
        assert ((vv @ cubic.T) * v).sum() == cubic1 - cubic2


def as_poly(coeffs):
    """{exponents: coefficient} of sum coeffs[i1..ik] x_i1 ... x_ik."""
    coeffs = np.asarray(coeffs, dtype=object)
    dim = coeffs.shape[0]
    out = defaultdict(Fraction)
    for idx in itertools.product(range(dim), repeat=coeffs.ndim):
        out[tuple(idx.count(v) for v in range(dim))] += coeffs[idx]
    return {k: c for k, c in out.items() if c}


def poly_mul(p, q, scale=1):
    out = defaultdict(Fraction)
    for (ka, ca), (kb, cb) in itertools.product(p.items(), q.items()):
        out[tuple(x + y for x, y in zip(ka, kb))] += scale * ca * cb
    return {k: c for k, c in out.items() if c}


def diag(*entries):
    return np.diag(np.array([Fraction(x) for x in entries], dtype=object))


def coordinate(i):
    return np.array([Fraction(int(k == i)) for k in range(4)], dtype=object)


def closed_form(case_id):
    """(p, q, F-free term, F-linear term) of the closed form's numerator."""
    if case_id == 2:
        p, q = Fraction(3, 10), Fraction(1, 5)
        s = as_poly(diag(1, 1, 0, 0))  # a^2 + b^2
        return p, q, poly_mul(s, s, 3 * p * p), poly_mul(as_poly(coordinate(2)), s, 4 * p)
    p, q = Fraction(0), Fraction(3, 10)
    a = as_poly(coordinate(0))
    if case_id == 3:
        s = as_poly(diag(0, 1, 1, 1))  # b^2 + c^2 + d^2
        return p, q, poly_mul(s, s, 3 * q * q), poly_mul(a, s, 4 * q)
    s = as_poly(diag(0, 2, 1, 1))
    return p, q, poly_mul(s, s, 3 * q * q / 4), poly_mul(a, as_poly(diag(0, 4, 1, 1)), q)


def case_structure(case_id, p, q):
    qvec = fr(0, 0, p, q) if case_id == 2 else fr(q, 0, 0, 0)
    return make_randers(catalog(case_id), identity_metric(4), qvec)


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_compiled_forms_match_closed_form_coefficients(case_id):
    p, q, free, linear = closed_form(case_id)
    _, _, quad, cubic = exact_forms(case_structure(case_id, p, q))
    assert poly_mul(as_poly(quad), as_poly(quad), 3) == free
    assert {k: -2 * c for k, c in as_poly(cubic.reshape(4, 4, 4)).items()} == linear


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_correction_batch_matches_closed_form(case_id):
    p, q, *_ = closed_form(case_id)
    gram, qv, _, _, quad, cubic = float_forms(case_structure(case_id, p, q))
    V = np.random.Generator(np.random.Philox(key=[7, case_id])).uniform(-1, 1, size=(64, 4))
    corr = kernels.correction_batch(quad, cubic, V, kernels.eval_f_batch(gram, qv, V))
    want = [flag_curvature_case(case_id, float(p), float(q), *row, k_g=0.0) for row in V]
    np.testing.assert_allclose(corr, want, rtol=1e-12, atol=1e-15)
