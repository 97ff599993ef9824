"""Connection and curvature tables, checked against independent identities.

The Koszul formula for left-invariant fields,

    2 g(nabla_u v, w) = g([u,v],w) - g([v,w],u) + g([w,u],v),

serves as the independent oracle for the connection; the defining transpose
identity does the same for ad*.  The library builds its tables on integer
numerators; the ``oracle_*`` functions (below, and ``oracle_levi_civita`` in
``exact_oracles``) build them one ``Fraction`` at a time through ad*, and the
two must agree entry for entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieranders import (
    CurvatureTable,
    LieAlgebra,
    MetricTensor,
    ad_star,
    catalog,
    curvature_tensor,
    identity_metric,
    levi_civita,
    sectional_curvature,
)
from lieranders import exactlinalg as xl
from lieranders.errors import DegeneratePlane
from lieranders.sampling import make_rng, random_rational, random_rational_vector

from conftest import SO3, SOLV5, SPACES, dense_metric, fr
from exact_oracles import oracle_integer_curvature_tensor, oracle_levi_civita

X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))

GENERIC_GRAM = MetricTensor(
    gram=xl.mat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]])
)
DENSE_GRAM = MetricTensor(
    gram=xl.mat(
        [
            [2, "1/2", "1/3", "1/4"],
            ["1/2", 3, "1/5", "1/6"],
            ["1/3", "1/5", 2, "1/7"],
            ["1/4", "1/6", "1/7", 1],
        ]
    )
)


def test_inner_orthonormal(metric4):
    assert metric4.inner(X, X) == 1
    assert metric4.inner(X, Y) == 0
    assert metric4.inner(fr(1, 2, 0, 0), fr(3, 0, 0, 0)) == 3


def test_metric_validation():
    with pytest.raises(ValueError):
        MetricTensor(gram=xl.mat([[1, 2], [0, 1]]))  # not symmetric
    with pytest.raises(ValueError):
        MetricTensor(gram=xl.mat([[1, 2], [2, 1]]))  # indefinite
    MetricTensor(gram=xl.mat([[2, 1], [1, 1]]))  # fine


def test_ad_star_abelian_is_zero(metric4):
    m = ad_star(catalog(0), metric4, fr(1, 2, 3, 4))
    assert m == tuple((Fraction(0),) * 4 for _ in range(4))


def test_ad_star_case3_Y(metric4):
    m = ad_star(catalog(3), metric4, Y)
    assert xl.mat_vec(m, Y) == fr(-1, 0, 0, 0)
    for e in (X, Z, W):
        assert xl.mat_vec(m, e) == fr(0, 0, 0, 0)


def test_ad_star_case1_is_minus_ad(metric4):
    a = catalog(1)
    rng = make_rng(101)
    for _ in range(10):
        v = random_rational_vector(rng, 4)
        assert ad_star(a, metric4, v) == xl.mat_scale(-1, a.ad(v))


@pytest.mark.parametrize("metric_name", ["identity", "generic"])
def test_ad_star_defining_identity(metric_name, metric4):
    metric = metric4 if metric_name == "identity" else GENERIC_GRAM
    rng = make_rng(7)
    for cid in range(5):
        a = catalog(cid)
        v = random_rational_vector(rng, 4)
        m = ad_star(a, metric, v)
        for _ in range(5):
            w = random_rational_vector(rng, 4)
            s = random_rational_vector(rng, 4)
            assert metric.inner(xl.mat_vec(m, w), s) == metric.inner(w, a.bracket(v, s))


def test_levi_civita_abelian(metric4):
    conn = levi_civita(catalog(0), metric4)
    assert all(xl.vec_is_zero(g) for row in conn.gamma for g in row)


def test_levi_civita_case3_values(metric4):
    conn = levi_civita(catalog(3), metric4)
    assert conn.nabla(Y, Y) == X
    assert conn.nabla(X, Y) == fr(0, 0, 0, 0)


def test_levi_civita_case1_values(metric4):
    conn = levi_civita(catalog(1), metric4)
    assert conn.nabla(Y, Z) == fr(0, 0, 0, "1/2")


@pytest.mark.parametrize("metric_name", ["identity", "generic"])
@pytest.mark.parametrize("case_id", range(5))
def test_connection_invariants(case_id, metric_name, metric4):
    metric = metric4 if metric_name == "identity" else GENERIC_GRAM
    a = catalog(case_id)
    conn = levi_civita(a, metric)
    e = a.basis()
    for i in range(4):
        for j in range(4):
            # torsion-free
            assert xl.vec_sub(conn.gamma[i][j], conn.gamma[j][i]) == a.structure[i][j]
            for k in range(4):
                # metric compatibility on left-invariant fields
                assert (
                    metric.inner(conn.gamma[i][j], e[k])
                    + metric.inner(e[j], conn.gamma[i][k])
                    == 0
                )


@pytest.mark.parametrize("case_id", range(5))
def test_connection_koszul_oracle(case_id, metric4):
    # independent route to the same table
    a = catalog(case_id)
    conn = levi_civita(a, metric4)
    rng = make_rng(11 + case_id)
    for _ in range(5):
        u = random_rational_vector(rng, 4)
        v = random_rational_vector(rng, 4)
        w = random_rational_vector(rng, 4)
        lhs = 2 * metric4.inner(conn.nabla(u, v), w)
        rhs = (
            metric4.inner(a.bracket(u, v), w)
            - metric4.inner(a.bracket(v, w), u)
            + metric4.inner(a.bracket(w, u), v)
        )
        assert lhs == rhs


def test_curvature_abelian_zero(metric4):
    a = catalog(0)
    table = curvature_tensor(a, levi_civita(a, metric4))
    assert all(
        xl.vec_is_zero(table.r[i][j][k])
        for i in range(4)
        for j in range(4)
        for k in range(4)
    )


# -- Fraction oracles for the integer-numerator tables ------------------------


def oracle_curvature_tensor(algebra, conn):
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k."""
    n = algebra.dim
    e = algebra.basis()
    return CurvatureTable(r=tuple(
        tuple(
            tuple(
                xl.vec_sub(
                    xl.vec_sub(
                        conn.nabla(e[i], conn.gamma[j][k]),
                        conn.nabla(e[j], conn.gamma[i][k]),
                    ),
                    conn.nabla(algebra.structure[i][j], e[k]),
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    ))


def oracle_of(table, u, v, w):
    """Trilinear extension of the table, summed in Fractions."""
    n = table.dim
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = u[i] * v[j] * w[k]
                for l, val in enumerate(table.r[i][j][k]):
                    out[l] += c * val
    return tuple(out)


@pytest.mark.parametrize("metric_name", ["identity", "dense"])
@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_curvature_table_equals_full_comprehension(case_id, metric_name, metric4):
    # the table computes i < j only; every entry must equal the direct formula
    metric = metric4 if metric_name == "identity" else DENSE_GRAM
    a = catalog(case_id)
    conn = levi_civita(a, metric)
    assert curvature_tensor(a, conn).r == oracle_curvature_tensor(a, conn).r


def all_fractions(table):
    """Every leaf of a nested tuple table is a Fraction, not a bare int."""
    if isinstance(table, tuple):
        return all(all_fractions(x) for x in table)
    return type(table) is Fraction


def assert_tables_match_oracles(algebra, metric, vectors):
    conn = levi_civita(algebra, metric)
    assert conn.gamma == oracle_levi_civita(algebra, metric).gamma
    assert all_fractions(conn.gamma)
    table = curvature_tensor(algebra, conn)
    assert table.r == oracle_curvature_tensor(algebra, conn).r
    assert all_fractions(table.r)
    for u, v, w in vectors:
        got = table.of(u, v, w)
        assert got == oracle_of(table, u, v, w)
        assert all_fractions(got)


ORACLE_SPACES = {
    **{
        f"case{cid}-{name}": (lambda cid=cid, m=m: (catalog(cid), m))
        for cid in range(5)
        for name, m in (("identity", identity_metric(4)), ("dense", DENSE_GRAM))
    },
    "so3-identity": lambda: (SO3, identity_metric(3)),
    "so3-dense": lambda: (SO3, dense_metric(3)),
    "solv5-identity": lambda: (SOLV5, identity_metric(5)),
    "solv5-dense": lambda: (SOLV5, dense_metric(5)),
}


@pytest.mark.parametrize("space", ORACLE_SPACES)
def test_integer_tables_equal_fraction_oracles(space):
    algebra, metric = ORACLE_SPACES[space]()
    rng = make_rng(53)
    vectors = [
        tuple(random_rational_vector(rng, algebra.dim) for _ in range(3)) for _ in range(5)
    ]
    e = algebra.basis()
    vectors.append((e[0], e[-1], e[0]))  # denominator 1
    vectors.append((tuple(range(1, algebra.dim + 1)), e[-1], e[0]))  # plain ints
    assert_tables_match_oracles(algebra, metric, vectors)


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def random_spaces(draw, max_dim=5):
    """Antisymmetric rational structure constants (Jacobi not required: the
    table formulas are identities without it) with a metric P^T P + I."""
    n = draw(st.integers(min_value=2, max_value=max_dim))
    vector = st.tuples(*[SMALL_RATIONALS] * n)
    brackets = {
        (i, j): draw(vector) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    }
    algebra = LieAlgebra.from_brackets(n, tuple(f"e{i}" for i in range(n)), brackets)
    p = draw(st.tuples(*[vector] * n))
    gram = xl.mat_add(xl.mat_mul(xl.transpose(p), p), xl.identity_matrix(n))
    uvw = draw(st.tuples(vector, vector, vector))
    return algebra, MetricTensor(gram=gram), uvw


@settings(max_examples=40, deadline=None)
@given(random_spaces())
def test_integer_tables_equal_fraction_oracles_random(space):
    algebra, metric, uvw = space
    assert_tables_match_oracles(algebra, metric, [uvw])


def assert_curvature_entries_match_oracle(algebra, metric):
    # the integer entries (i < j), read without a Fraction table, against the
    # Fraction oracle's; the Fraction table is built by the same integer core
    conn = levi_civita(algebra, metric)
    oracle = oracle_integer_curvature_tensor(algebra, conn)
    d, entries = oracle._entries
    upper = tuple(e for e in entries if e[0] < e[1])
    assert metric._tables(algebra).curvature_entries == (d, upper)
    assert curvature_tensor(algebra, conn).r == oracle.r


@pytest.mark.parametrize("space", SPACES)
def test_curvature_entries_equal_fraction_oracle(space):
    assert_curvature_entries_match_oracle(*SPACES[space]())


@settings(max_examples=30, deadline=None)
@given(random_spaces(max_dim=6))
def test_curvature_entries_equal_fraction_oracle_random(space):
    algebra, metric, _ = space
    assert_curvature_entries_match_oracle(algebra, metric)


def test_curvature_spot_values(metric4):
    a3 = catalog(3)
    t3 = curvature_tensor(a3, levi_civita(a3, metric4))
    assert t3.of(X, Y, Y) == fr(-1, 0, 0, 0)
    a1 = catalog(1)
    t1 = curvature_tensor(a1, levi_civita(a1, metric4))
    assert t1.of(Y, Z, Z) == fr(0, "1/4", 0, 0)


@pytest.mark.parametrize("metric_name", ["identity", "generic"])
@pytest.mark.parametrize("case_id", range(5))
def test_curvature_identities(case_id, metric_name, metric4):
    metric = metric4 if metric_name == "identity" else GENERIC_GRAM
    a = catalog(case_id)
    table = curvature_tensor(a, levi_civita(a, metric))
    rng = make_rng(23 + case_id)
    for _ in range(4):
        u = random_rational_vector(rng, 4)
        v = random_rational_vector(rng, 4)
        w = random_rational_vector(rng, 4)
        s = random_rational_vector(rng, 4)
        # antisymmetry in the first slots
        assert table.of(u, v, w) == xl.vec_scale(-1, table.of(v, u, w))
        # first Bianchi identity
        total = xl.vec_add(
            xl.vec_add(table.of(u, v, w), table.of(v, w, u)), table.of(w, u, v)
        )
        assert xl.vec_is_zero(total)
        # pair symmetry
        assert metric.inner(table.of(u, v, w), s) == metric.inner(table.of(w, s, u), v)


def test_sectional_case3_constant(metric4):
    a = catalog(3)
    assert sectional_curvature(a, metric4, X, Y) == -1
    rng = make_rng(31)
    found = 0
    while found < 100:
        u = random_rational_vector(rng, 4)
        v = random_rational_vector(rng, 4)
        if xl.rank([u, v]) != 2:
            continue
        assert sectional_curvature(a, metric4, u, v) == Fraction(-1)
        found += 1


def test_sectional_case1_values(metric4):
    a = catalog(1)
    assert sectional_curvature(a, metric4, Y, Z) == Fraction(1, 4)
    rng = make_rng(37)
    for _ in range(20):
        v = random_rational_vector(rng, 4)
        if xl.rank([X, v]) != 2:
            continue
        assert sectional_curvature(a, metric4, X, v) == 0


def test_sectional_abelian_zero(metric4):
    a = catalog(0)
    assert sectional_curvature(a, metric4, X, fr(1, 2, 3, 4)) == 0


def test_sectional_degenerate_plane(metric4):
    with pytest.raises(DegeneratePlane):
        sectional_curvature(catalog(3), metric4, X, xl.vec_scale(Fraction(3), X))


def test_sectional_plane_invariance(metric4):
    a = catalog(2)
    rng = make_rng(41)
    for _ in range(10):
        u = random_rational_vector(rng, 4)
        v = random_rational_vector(rng, 4)
        if xl.rank([u, v]) != 2:
            continue
        alpha, beta = random_rational(rng), random_rational(rng)
        gamma, delta = random_rational(rng), random_rational(rng)
        if alpha * delta - beta * gamma == 0:
            continue
        u2 = xl.vec_add(xl.vec_scale(alpha, u), xl.vec_scale(beta, v))
        v2 = xl.vec_add(xl.vec_scale(gamma, u), xl.vec_scale(delta, v))
        assert sectional_curvature(a, metric4, u, v) == (
            sectional_curvature(a, metric4, u2, v2)
        )
