"""The compiled Randers forms against independent routes.

``compile_randers`` is the one production flag-curvature route.  Its exact
values are checked with ``==`` against ``sectional_curvature``, the
``Fraction`` inner product ``oracle_inner``, the bracket oracle and, for
``A`` and ``C``, the ``Fraction`` U-map and, as polynomials, the ``Fraction``
pair loop ``oracle_correction_forms``; its flag curvature against the
Deng-Hou U-map route and, bit for bit, against the floats of its exact
values, and the float terms the sweep kernels read against one correctly
rounded ``num / d`` per symmetric monomial (the oracle's dense tables
against one per entry).  Its ``A`` and ``C`` restricted to the Douglas
subspace, the sign certificate, vanish on every test space and on random
structures.
"""

import itertools
import math
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieranders import (
    Flag,
    catalog,
    compile_randers,
    douglas_subspace,
    flag_curvature_deng_hou,
    flag_curvature_simplified,
    identity_metric,
    make_randers,
    sectional_curvature,
    sign_certificate,
    u_map,
)
from lieranders import exactlinalg as xl
from lieranders.errors import LieRandersError, NotDouglas
from lieranders.riemann import curvature_tensor, levi_civita
from lieranders.sweep import make_rng

from conftest import (
    SMALL_RATIONALS,
    SPACES,
    douglas_q,
    douglas_structures,
    fr,
    random_flag_pair,
)
from exact_oracles import (
    oracle_correction_forms,
    oracle_inner,
    polynomial,
    sparse_entries,
    symmetrised,
)
from flag_oracles import bracket_terms
from kernel_oracles import dense_forms

def structure(space):
    algebra, metric = SPACES[space]()
    return make_randers(algebra, metric, douglas_q(algebra, metric))


def flags(dim, seed, count=12):
    rng = make_rng(seed)
    out = [Flag(v=xl.basis_vector(dim, 0), u=xl.basis_vector(dim, dim - 1))]
    out += [Flag(*random_flag_pair(rng, dim)) for _ in range(count)]
    return out


def assert_exact(r, compiled, flag):
    a, m = r.algebra, r.metric
    t1, cubic1, cubic2 = bracket_terms(r, flag.v)
    exact = compiled.exact(flag)
    assert exact == (
        oracle_inner(m, flag.v, flag.v),
        oracle_inner(m, r.q_field, flag.v),
        sectional_curvature(a, m, flag.u, flag.v),
        t1,
        cubic1 - cubic2,
    )
    # the identity the compile rests on: A(V) = g(U(V,V), Q) and
    # C(V) = 2 g(U(V, U(V,V)), Q), with U(V,V) = nabla_V V
    uvv = u_map(a, m, flag.v, flag.v)
    assert exact[3:] == (
        oracle_inner(m, uvv, r.q_field),
        2 * oracle_inner(m, u_map(a, m, flag.v, uvv), r.q_field),
    )


@pytest.mark.parametrize("space", SPACES)
def test_compiled_values_equal_oracles(space):
    r = structure(space)
    compiled = compile_randers(r)
    for flag in flags(r.dim, 71):
        assert_exact(r, compiled, flag)


@pytest.mark.parametrize("space", SPACES)
def test_compiled_flag_matches_deng_hou(space):
    r = structure(space)
    compiled = compile_randers(r)
    for flag in flags(r.dim, 73):
        got, want = tuple(compiled.flag(flag)), tuple(flag_curvature_deng_hou(r, flag))
        big = max(1.0, *map(abs, got + want))
        assert all(abs(x - y) <= 1e-12 * big for x, y in zip(got, want)), (got, want)


@pytest.mark.parametrize("space", SPACES)
def test_compile_without_table_equals_compile_with_table(space):
    # the compile reads the curvature kept with the metric; a Fraction table
    # of the same space, passed to flag_curvature_simplified, is not read
    # and has the same entries
    r = structure(space)
    table = curvature_tensor(r.algebra, levi_civita(r.algebra, r.metric))
    d, entries = sparse_entries(table)
    assert r.metric._tables(r.algebra).curvature_entries == (
        d, tuple(e for e in entries if e[0] < e[1])
    )
    compiled = compile_randers(r)
    for flag in flags(r.dim, 29, count=6):
        assert flag_curvature_simplified(r, flag, curvature=table) == compiled.flag(flag)


@pytest.mark.parametrize("space", SPACES)
def test_dense_tables_are_rounded_numerators(space):
    r = structure(space)
    compiled = compile_randers(r)
    n, p = r.dim, r.dim * (r.dim - 1) // 2
    dense = dense_forms(compiled)
    forms = (compiled.r2, compiled.g2, compiled.a, compiled.c)
    assert [x.shape for x in dense] == [(p, p), (p, p), (n, n), (n, n * n)]
    for form, table, shape in zip(forms, dense, [(p, p), (p, p), (n, n), (n, n, n)]):
        want = np.zeros(shape)
        for idx, num in form.terms.items():
            assert num != 0
            want[idx] = num / form.d
        np.testing.assert_array_equal(table, want.reshape(table.shape))


@pytest.mark.parametrize("space", SPACES)
def test_float_terms_are_rounded_monomials(space):
    r = structure(space)
    compiled = compile_randers(r)
    n, p = r.dim, r.dim * (r.dim - 1) // 2
    forms = [(compiled.gq, n, 1), (compiled.r2, p, 2), (compiled.g2, p, 2),
             (compiled.a, n, 2), (compiled.c, n, 3)]
    for form, size, degree in forms:
        # each coefficient is float(Fraction(symmetrised sum, d)), rounded once
        sums = defaultdict(int)
        for idx in itertools.product(range(size), repeat=degree):
            sums[tuple(sorted(idx))] += form.terms.get(idx, 0)
        want = {idx: float(Fraction(num, form.d)) for idx, num in sums.items() if num}
        terms = form.rounded()
        assert len(terms) == len(want) and dict(terms) == want
        assert all(type(coef) is float for _, coef in terms)


@pytest.mark.parametrize("space", SPACES)
def test_sign_certificate_on_every_test_space(space):
    r = structure(space)
    douglas = douglas_subspace(r.algebra, r.metric)
    if not douglas.basis:  # so(3): [g, g] = g
        with pytest.raises(LieRandersError, match=re.escape("Douglas subspace {0}")):
            sign_certificate(r)
        return
    cert = sign_certificate(r)
    assert cert.ok and cert.douglas == douglas


def test_compiled_tables_case2_spot_values():
    # Q = Z/2 on case 2: A(V) = -(a^2 + b^2)/2, G2 the identity on bivectors
    r = make_randers(catalog(2), identity_metric(4), fr(0, 0, "1/2", 0))
    compiled = compile_randers(r)
    a = {idx: Fraction(num, compiled.a.d) for idx, num in compiled.a.terms.items()}
    assert a == {(0, 0): Fraction(-1, 2), (1, 1): Fraction(-1, 2)}
    assert compiled.g2 == ({(s, s): 1 for s in range(6)}, 1)


def test_compile_requires_douglas():
    with pytest.raises(NotDouglas):
        compile_randers(make_randers(catalog(2), identity_metric(4), fr("1/2", 0, 0, 0)))


@settings(max_examples=40, deadline=None)
@given(douglas_structures())
def test_sign_certificate_holds_on_random_structures(case):
    r, _ = case
    cert = sign_certificate(r)
    assert cert.ok, (cert.a, cert.c)


@settings(max_examples=60, deadline=None)
@given(douglas_structures())
def test_compiled_values_equal_oracles_random(case):
    r, flag = case
    assert_exact(r, compile_randers(r), flag)


@settings(max_examples=60, deadline=None)
@given(douglas_structures(identity=st.booleans()))
def test_contracted_forms_equal_pair_loop_oracle(case):
    # A = sum_i q_i A_i and C = sum_i q_i T_i are the forms of the pair loop
    r, _ = case
    compiled = compile_randers(r)
    quad, cubic = oracle_correction_forms(r)
    assert polynomial(compiled.a) == symmetrised(quad)
    assert polynomial(compiled.c) == symmetrised(cubic)
    zero = compile_randers(make_randers(r.algebra, r.metric, xl.zero_vector(r.dim)))
    assert zero.a.terms == {} and zero.c.terms == {}
    for form in (compiled.a, compiled.c):
        assert all(idx == tuple(sorted(idx)) and num for idx, num in form.terms.items())


@pytest.mark.parametrize("space", SPACES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flag_is_the_float_route_of_exact(space, data):
    # flag divides the integer sums; int / int is correctly rounded, so each
    # value is the float of its Fraction, and K^F follows bit for bit
    r = structure(space)
    vector = st.tuples(*[SMALL_RATIONALS] * r.dim)
    v, u = data.draw(vector), data.draw(vector)
    assume(xl.rank([v, u]) == 2)
    flag = Flag(v=v, u=u)
    compiled = compile_randers(r)
    gvv, beta, k_g, a, c = map(float, compiled.exact(flag))
    f = math.sqrt(gvv) + beta
    correction = (3.0 * a**2 - 2.0 * f * c) / (4.0 * f**4)
    k_f = gvv / f**2 * k_g + correction
    want = [x.hex() for x in (k_f, k_g, correction, f)]
    assert [x.hex() for x in compiled.flag(flag)] == want
