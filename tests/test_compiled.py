"""The compiled Randers forms against independent routes.

``compile_randers`` is the one production flag-curvature route.  Its exact
values are checked with ``==`` against ``sectional_curvature``, the
``Fraction`` inner product ``oracle_inner`` and the bracket oracle, its flag
curvature against the Deng-Hou U-map route, and its float tables against one
correctly rounded ``num / d`` per coefficient.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieranders import (
    Flag,
    LieAlgebra,
    MetricTensor,
    catalog,
    compile_randers,
    douglas_subspace,
    flag_curvature_deng_hou,
    flag_curvature_simplified,
    identity_metric,
    make_randers,
    sectional_curvature,
)
from lieranders import exactlinalg as xl
from lieranders.errors import NotDouglas
from lieranders.riemann import curvature_tensor, levi_civita
from lieranders.sampling import make_rng, random_flag_pair

from conftest import SPACES, douglas_q, fr
from exact_oracles import oracle_inner
from flag_oracles import bracket_terms

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
    assert compiled.exact(flag) == (
        oracle_inner(m, flag.v, flag.v),
        oracle_inner(m, r.q_field, flag.v),
        sectional_curvature(a, m, flag.u, flag.v),
        t1,
        cubic1 - cubic2,
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
    d, entries = table._entries
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
    dense = compiled.dense()
    forms = (compiled.r2, compiled.g2, compiled.a, compiled.c)
    assert [x.shape for x in dense] == [(p, p), (p, p), (n, n), (n, n * n)]
    for form, table, shape in zip(forms, dense, [(p, p), (p, p), (n, n), (n, n, n)]):
        want = np.zeros(shape)
        for idx, num in form.terms.items():
            assert num != 0
            want[idx] = num / form.d
        np.testing.assert_array_equal(table, want.reshape(table.shape))


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


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def douglas_structures(draw):
    """Random antisymmetric structure constants with no e_last component, so
    [g, g] misses e_last and the Douglas subspace is nonzero; metric
    P^T P + I; Q in the Douglas subspace; a random flag.  The forms are
    identities without Jacobi, so it is not required."""
    n = draw(st.integers(min_value=2, max_value=5))
    vector = st.tuples(*[SMALL_RATIONALS] * n)
    brackets = {
        (i, j): draw(st.tuples(*[SMALL_RATIONALS] * (n - 1))) + (Fraction(0),)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    algebra = LieAlgebra.from_brackets(n, tuple(f"e{i}" for i in range(n)), brackets)
    p = draw(st.tuples(*[vector] * n))
    metric = MetricTensor(gram=xl.mat_add(xl.mat_mul(xl.transpose(p), p), xl.identity_matrix(n)))
    basis = douglas_subspace(algebra, metric).basis
    coeffs = draw(st.tuples(*[SMALL_RATIONALS] * len(basis)))
    q = xl.zero_vector(n)
    for c, b in zip(coeffs, basis):
        q = xl.vec_add(q, xl.vec_scale(c, b))
    norm = metric.inner(q, q)
    q = xl.vec_scale(Fraction(1, 2 + int(norm)), q)  # g(Q,Q) < 1
    v, u = draw(vector), draw(vector)
    assume(xl.rank([v, u]) == 2)
    return make_randers(algebra, metric, q), Flag(v=v, u=u)


@settings(max_examples=60, deadline=None)
@given(douglas_structures())
def test_compiled_values_equal_oracles_random(case):
    r, flag = case
    assert_exact(r, compile_randers(r), flag)
