"""Float kernels and the compiled forms they read.

The compiled forms are checked exactly against ``sectional_curvature``,
``oracle_inner`` and the bracket oracle, on the kernels run over ``Fraction``
object arrays with exact coefficients, and against the per-family closed
forms coefficient by coefficient.  The float kernels are checked against the
exact bracket oracle at the same flag, converted exactly with
``Fraction(float)``, within 1e-9 of the largest term, on six fixed
structures, against the dense ``einsum`` kernels of ``kernel_oracles`` the
same way, and against ``CompiledRanders.exact`` on random Douglas structures
in dimensions 2-5.
"""

import itertools
import os
import subprocess
import sys
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieranders import (
    Flag,
    catalog,
    compile_randers,
    identity_metric,
    make_randers,
    sectional_curvature,
)
from lieranders import kernels
from lieranders.riemann import curvature_tensor, levi_civita
from lieranders.sweep import dense_gram

from conftest import SO3, SOLV5, dense_metric, douglas_q, douglas_structures, fr
from exact_oracles import oracle_inner
from finsler_oracles import eval_F
from flag_oracles import bracket_terms, flag_curvature_case, oracle_flag_curvature_simplified
from kernel_oracles import (
    dense_forms,
    exact_terms,
    oracle_correction_batch,
    oracle_eval_f_batch,
    oracle_sectional_batch,
)

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


def k_g_columns(r2, g2, u, v):
    """K^g of the library kernels on the (dim, n) columns u, v: the bivector
    columns w = U^V, G2(w) as the draw evaluates it, then R2(w) / G2(w)."""
    w = kernels.wedge_batch(u, v)
    return kernels.sectional_batch(r2, w, kernels.form_batch(g2, w))


def kernel_columns(r, V, U):
    """(F, K^g, correction, K^F) of the library kernels at the rows of V, U,
    passed as contiguous (dim, n) columns as the sweep draws them."""
    compiled = compile_randers(r)
    v, u = np.ascontiguousarray(V.T), np.ascontiguousarray(U.T)
    gvv = np.einsum("kn,kn->n", v, dense_gram(r.metric) @ v)
    f = kernels.eval_f_batch(gvv, compiled.gq.rounded(), v)
    k_g = k_g_columns(compiled.r2.rounded(), compiled.g2.rounded(), u, v)
    corr = kernels.correction_batch(compiled.a.rounded(), compiled.c.rounded(), v, f)
    return f, k_g, corr, gvv / f**2 * k_g + corr


def oracle_columns(r, V, U):
    """(F, K^g, correction) of the dense einsum oracle at the rows of V, U."""
    r2, g2, quad, cubic = dense_forms(compile_randers(r))
    f = oracle_eval_f_batch(dense_gram(r.metric), np.array(r.q_field, dtype=float), V)
    return f, oracle_sectional_batch(r2, g2, U, V), oracle_correction_batch(quad, cubic, V, f)


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
    f, k_g, corr, k_f = kernel_columns(r, V, U)
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


def test_kernels_match_dense_oracle(setup):
    # the dense einsum kernels on the unsymmetrised tables, within the same bound
    r, V, U = setup["r"], setup["V"], setup["U"]
    want = oracle_columns(r, V, U)
    got = [setup[name] for name in ("f", "k_g", "correction")]
    big = np.maximum(1.0, np.max(np.abs(np.vstack([*want, *got])), axis=0))
    for name, x, y in zip(("f", "k_g", "correction"), got, want):
        assert (np.abs(x - y) <= TOL * big).all(), name


@pytest.mark.parametrize("name", ["case2-identity", "case4-dense", "solv5-dense"])
def test_kernels_do_not_write_into_their_inputs(name):
    # on read-only columns, any in-place operation on an input raises; so
    # does one on a result that is an input's view, which form_batch returns
    # for a lone unit term x_k, so each kernel also gets such a term
    r = STRUCTURES[name]()
    compiled = compile_randers(r)
    rng = np.random.Generator(np.random.Philox(key=[23, r.dim]))
    v, u = rng.uniform(-1, 1, size=(2, r.dim, 64))
    w = kernels.wedge_batch(u, v)
    gvv = np.einsum("kn,kn->n", v, dense_gram(r.metric) @ v)
    g2w = kernels.form_batch(compiled.g2.rounded(), w)
    columns = (v, u, w, gvv, g2w)
    before = [x.copy() for x in columns]
    for x in columns:
        x.setflags(write=False)
    lone = [((1,), 1.0)]
    assert np.shares_memory(kernels.form_batch(lone, v), v)
    np.testing.assert_array_equal(kernels.wedge_batch(u, v), w)
    for terms, x in itertools.product([compiled.gq.rounded(), compiled.c.rounded(), lone], (v, w)):
        kernels.form_batch(terms, x)
    for beta in (compiled.gq.rounded(), lone):
        f = kernels.eval_f_batch(gvv, beta, v)
        f.setflags(write=False)
        for a, c in ((compiled.a.rounded(), compiled.c.rounded()), (lone, lone)):
            kernels.correction_batch(a, c, v, f)
    for r2 in (compiled.r2.rounded(), lone):
        kernels.sectional_batch(r2, w, g2w)
    for x, want in zip(columns, before):
        np.testing.assert_array_equal(x, want)


def test_form_batch_takes_terms_in_any_order():
    # x_0 (x_0 + 3 x_1 + 2 x_2 + 4 x_3) - x_1^2 on integer columns, exact in
    # floats; unsorted, the last indices 0, 2, 1, 3 would pass for one slice
    x = np.arange(1.0, 9.0).reshape(4, 2)
    terms = [((0, 0), 1.0), ((0, 2), 2.0), ((0, 1), 3.0), ((0, 3), 4.0), ((1, 1), -1.0)]
    want = x[0] * (x[0] + 3 * x[1] + 2 * x[2] + 4 * x[3]) - x[1] * x[1]
    for order in (terms, terms[::-1], sorted(terms)):
        np.testing.assert_array_equal(kernels.form_batch(order, x), want)
    np.testing.assert_array_equal(kernels.form_batch([], x), [0.0, 0.0])
    np.testing.assert_array_equal(kernels.form_batch([((3,), 1.0), ((1,), 0.5)], x), x[3] + x[1] / 2)


def test_compiled_forms_are_exact(setup):
    r, V, U = setup["r"], setup["V"], setup["U"]
    compiled = compile_randers(r)
    r2, g2, quad, cubic = (exact_terms(f) for f in (compiled.r2, compiled.g2, compiled.a, compiled.c))
    a, m = r.algebra, r.metric
    for row in range(0, len(V), 20):
        flag = exact_flag(V[row], U[row])
        k_g = sectional_curvature(a, m, flag.u, flag.v)
        t1, cubic1, cubic2 = bracket_terms(r, flag.v)
        gvv, beta, *forms = compiled.exact(flag)
        assert (gvv, beta) == (oracle_inner(m, flag.v, flag.v), oracle_inner(m, r.q_field, flag.v))
        assert forms == [k_g, t1, cubic1 - cubic2]
        # the library kernels on Fraction columns with exact coefficients
        v, u = obj(flag.v)[:, None], obj(flag.u)[:, None]
        assert k_g_columns(r2, g2, u, v)[0] == k_g
        assert kernels.form_batch(quad, v)[0] == t1
        assert kernels.form_batch(cubic, v)[0] == cubic1 - cubic2


@settings(max_examples=50, deadline=None)
@given(douglas_structures())
def test_kernels_match_compiled_exact_on_random_structures(case):
    # the drawn flag and seven seeded float flags in one block, each against
    # CompiledRanders.exact at exactly the float flag's values
    r, flag = case
    rng = np.random.Generator(np.random.Philox(key=[5, r.dim]))
    V = np.vstack([np.array(flag.v, dtype=float), rng.uniform(-1, 1, size=(7, r.dim))])
    U = np.vstack([np.array(flag.u, dtype=float), rng.uniform(-1, 1, size=(7, r.dim))])
    f, k_g, corr, _ = kernel_columns(r, V, U)
    compiled = compile_randers(r)
    for row in range(len(V)):
        _, _, want_k_g, a, c = compiled.exact(exact_flag(V[row], U[row]))
        f_row = Fraction(f[row])
        want_corr = (3 * a * a - 2 * f_row * c) / (4 * f_row**4)
        got, want = (k_g[row], corr[row]), (float(want_k_g), float(want_corr))
        big = max(1.0, *map(abs, got + want))
        for name, x, y in zip(("k_g", "correction"), got, want):
            assert abs(x - y) <= TOL * big, (name, row, x, y)


def as_poly(terms):
    """{exponents: coefficient} of sum coef x_i1 ... x_ik over the
    (index tuple, coef) ``terms``, in four variables."""
    out = defaultdict(Fraction)
    for idx, coef in terms:
        out[tuple(idx.count(v) for v in range(4))] += coef
    return {k: c for k, c in out.items() if c}


def poly_mul(p, q, scale=1):
    out = defaultdict(Fraction)
    for (ka, ca), (kb, cb) in itertools.product(p.items(), q.items()):
        out[tuple(x + y for x, y in zip(ka, kb))] += scale * ca * cb
    return {k: c for k, c in out.items() if c}


def diag(*entries):
    return as_poly(((i, i), Fraction(x)) for i, x in enumerate(entries))


def coordinate(i):
    return as_poly([((i,), Fraction(1))])


def closed_form(case_id):
    """(p, q, F-free term, F-linear term) of the closed form's numerator."""
    if case_id == 2:
        p, q = Fraction(3, 10), Fraction(1, 5)
        s = diag(1, 1, 0, 0)  # a^2 + b^2
        return p, q, poly_mul(s, s, 3 * p * p), poly_mul(coordinate(2), s, 4 * p)
    p, q = Fraction(0), Fraction(3, 10)
    a = coordinate(0)
    if case_id == 3:
        s = diag(0, 1, 1, 1)  # b^2 + c^2 + d^2
        return p, q, poly_mul(s, s, 3 * q * q), poly_mul(a, s, 4 * q)
    s = diag(0, 2, 1, 1)
    return p, q, poly_mul(s, s, 3 * q * q / 4), poly_mul(a, diag(0, 4, 1, 1), q)


def case_structure(case_id, p, q):
    qvec = fr(0, 0, p, q) if case_id == 2 else fr(q, 0, 0, 0)
    return make_randers(catalog(case_id), identity_metric(4), qvec)


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_compiled_forms_match_closed_form_coefficients(case_id):
    p, q, free, linear = closed_form(case_id)
    compiled = compile_randers(case_structure(case_id, p, q))
    quad, cubic = as_poly(exact_terms(compiled.a)), as_poly(exact_terms(compiled.c))
    assert poly_mul(quad, quad, 3) == free
    assert {k: -2 * c for k, c in cubic.items()} == linear


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_correction_batch_matches_closed_form(case_id):
    p, q, *_ = closed_form(case_id)
    r = case_structure(case_id, p, q)
    V = np.random.Generator(np.random.Philox(key=[7, case_id])).uniform(-1, 1, size=(64, 4))
    _, _, corr, _ = kernel_columns(r, V, V[::-1])
    want = [flag_curvature_case(case_id, float(p), float(q), *row, k_g=0.0) for row in V]
    np.testing.assert_allclose(corr, want, rtol=1e-12, atol=1e-15)


# format_csv_block against "%.12g" per value (CPython's correctly rounded
# dtoa), on the row widths k = dim + 4 of dims 2, 4 and 26


def g12_rows(block):
    """The reference bytes: each value of each row formatted on its own."""
    return "".join(",".join("%.12g" % x for x in row) + "\n" for row in block.tolist()).encode()


def assert_g12(values, k):
    values = np.asarray(values, dtype=np.float64)
    block = values[: len(values) // k * k].reshape(-1, k)
    got, want = kernels.format_csv_block(block), g12_rows(block)
    bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
    assert got == want, bad[:3]


def thirteen_digit_ties(rng, n):
    """Exact doubles whose 13th significant digit is a final 5: D 10^s for
    a 13-digit D ending in 5 (1234567890125.0), and u / 2^s = 5^s u / 10^s
    with 5^s u such a D (1234567890.125)."""
    d = rng.integers(10**11, 9 * 10**11, n) * 10 + 5
    scaled = d * 10.0 ** rng.integers(0, 4, n)
    s = rng.integers(1, 13, n)
    lo, hi = -(-10**12 // 5**s), (10**13 - 1) // 5**s
    u = (lo + (rng.random(n) * (hi - lo)).astype(np.int64)) | 1
    return np.concatenate([[1234567890125.0, 1234567890.125], scaled, u / 2.0**s])


def g12_sets(seed, n):
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)
    powers = 10.0 ** np.arange(-323, 309)
    return {
        "uniform": rng.uniform(-1, 1, n),
        "log-spread": sign * 10.0 ** rng.uniform(-308, 308, n),
        "random-bits": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        "powers-of-ten": np.concatenate([
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
            powers[:-1] * 9.999999999995, powers * 0.9999999999995,
        ]),
        "13-digit-ties": thirteen_digit_ties(rng, n) * rng.choice([-1.0, 1.0], 2 * n + 2),
        "subnormal": sign * rng.integers(1, 2**52, n, dtype=np.uint64).view(np.float64),
        "special": rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0], n),
        "zero-one": rng.integers(0, 2, n).astype(np.float64),
        "exponents": sign * 10.0 ** np.concatenate([
            rng.uniform(-9, -4, n // 4), rng.uniform(12, 99, n // 4),  # e-05 .. e+99
            rng.uniform(100, 308, n // 4), rng.uniform(-323, -100, n // 4),  # e+100, e-100
        ]),
    }


@pytest.mark.parametrize("k", [6, 8, 30])
@pytest.mark.parametrize("name", list(g12_sets(0, 8)))
def test_format_csv_block_matches_g12_on_seeded_sets(name, k):
    assert_g12(g12_sets(29, 40000)[name], k)


def test_format_csv_block_matches_g12_next_to_powers_of_ten():
    # the 64 doubles below and the 8 at or above each power of ten: for most
    # of those below, floor(log10 |x|) overshoots the exponent by one, so the
    # kernel's y = |x| 10^(11-e) falls just under 1e11
    bits = (10.0 ** np.arange(-323, 309)).view(np.int64)
    x = np.unique((bits[:, None] + np.arange(-64, 8)).clip(1)).view(np.float64)
    e = np.floor(np.log10(x)).tolist()
    assert sum(Decimal(v).adjusted() < f for v, f in zip(x.tolist(), e)) > len(x) // 2
    assert_g12(np.concatenate([x, -x]), 6)


G12_DOUBLES = st.one_of(
    st.floats(),  # nan, +-inf, +-0, subnormals and the whole exponent range
    st.floats(-1, 1),
    st.integers(-(2**53), 2**53).map(float),
    st.sampled_from([1234567890125.0, 1234567890.125, 999999999999.5, 0.5, 1e-5, 1e16, 5e-324]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1, 10), st.integers(-310, 308)),
)


@settings(max_examples=300, deadline=None)
@given(k=st.sampled_from([6, 8, 30]), data=st.data())
def test_format_csv_block_matches_g12(k, data):
    rows = data.draw(st.integers(1, 6))
    assert_g12(data.draw(st.lists(G12_DOUBLES, min_size=rows * k, max_size=rows * k)), k)


def test_format_csv_block_tables_are_lazy():
    # a fresh import builds no tables: only the first call pays for them
    code = ("import lieranders.kernels as k; assert k._g12_tables.cache_info().currsize == 0; "
            "k.format_csv_block(k.np.ones((1, 1))); assert k._g12_tables.cache_info().currsize == 1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
