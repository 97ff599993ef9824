"""Connection and curvature tables, checked against independent identities.

The Koszul formula for left-invariant fields,

    2 g(nabla_u v, w) = g([u,v],w) - g([v,w],u) + g([w,u],v),

serves as the independent oracle for the connection; the defining transpose
identity checks the ad* of ``exact_oracles``.  The library builds its tables
on integer numerators; the ``oracle_*`` functions of ``exact_oracles`` build
them one ``Fraction`` at a time through ad*, and the two must agree entry for
entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieranders import (
    LieAlgebra,
    MetricTensor,
    RandersClass,
    catalog,
    classify_randers,
    curvature_tensor,
    identity_metric,
    levi_civita,
    make_randers,
    sectional_curvature,
)
from lieranders import exactlinalg as xl
from lieranders.errors import DegeneratePlane, DimensionMismatch
from lieranders.sweep import make_rng

from conftest import (
    SO3,
    SOLV5,
    SPACES,
    dense_metric,
    fr,
    mat,
    random_rational,
    random_rational_vector,
    spd_metric,
)
from exact_oracles import (
    mat_scale,
    mat_vec,
    oracle_ad_star,
    oracle_curvature_tensor,
    oracle_integer_curvature_tensor,
    oracle_levi_civita,
    oracle_nabla,
    oracle_of,
    sparse_entries,
    vec_add,
    vec_is_zero,
    vec_sub,
)

X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))

GENERIC_GRAM = MetricTensor(
    gram=mat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]])
)
DENSE_GRAM = MetricTensor(
    gram=mat(
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
        MetricTensor(gram=mat([[1, 2], [0, 1]]))  # not symmetric
    with pytest.raises(ValueError):
        MetricTensor(gram=mat([[1, 2], [2, 1]]))  # indefinite
    MetricTensor(gram=mat([[2, 1], [1, 1]]))  # fine


def test_list_built_metric_equals_its_tuple_twin():
    rows = [[2, 1], [1, Fraction(3, 2)]]
    metric = MetricTensor(gram=rows)
    twin = MetricTensor(gram=((2, 1), (1, Fraction(3, 2))))
    assert metric == twin and hash(metric) == hash(twin)
    assert all(type(row) is tuple for row in metric.gram)
    rows[0][1] = 7  # the caller's lists are not the metric's
    assert metric == twin and metric.inverse_gram == twin.inverse_gram
    assert MetricTensor(gram=[[1, 0], [0, 1]]) == identity_metric(2)


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [3, 1]], "gram matrix must be symmetric"),
    ([[1, Fraction(1, 2)], [Fraction(1, 3), 1]], "gram matrix must be symmetric"),
    ([[1, 2], [2, 1]], "gram matrix must be positive definite"),
    ([[0, 1], [1, 0]], "gram matrix must be positive definite"),
    ([[1, 0], [0, 0]], "gram matrix must be positive definite"),
])
def test_bad_gram_messages_on_lists_and_tuples(rows, message):
    for gram in (rows, tuple(map(tuple, rows))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MetricTensor(gram=gram)


def test_dimension_zero_metric_rejected():
    message = r"^a metric needs dimension >= 1; got an empty gram matrix$"
    with pytest.raises(DimensionMismatch, match=message):
        MetricTensor(gram=())
    with pytest.raises(DimensionMismatch, match=message):
        identity_metric(0)


def test_int_gram_metric_is_exact():
    gram = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    metric = MetricTensor(gram=gram)
    assert metric.inverse_gram == mat([[1, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert all(type(x) is Fraction for row in metric.inverse_gram for x in row)
    r = make_randers(catalog(2), metric, fr(0, 0, "1/2", 0))
    assert classify_randers(r).kind is RandersClass.NON_BERWALD_DOUGLAS


def test_ad_star_abelian_is_zero(metric4):
    m = oracle_ad_star(catalog(0), metric4, fr(1, 2, 3, 4))
    assert m == tuple((Fraction(0),) * 4 for _ in range(4))


def test_ad_star_case3_Y(metric4):
    m = oracle_ad_star(catalog(3), metric4, Y)
    assert mat_vec(m, Y) == fr(-1, 0, 0, 0)
    for e in (X, Z, W):
        assert mat_vec(m, e) == fr(0, 0, 0, 0)


def ad_matrix(algebra, v):
    """Matrix of ad_v : s -> [v, s] on the basis; column j is [v, e_j]."""
    return xl.transpose(tuple(algebra.bracket(v, e) for e in algebra.basis()))


def test_ad_star_case1_is_minus_ad(metric4):
    a = catalog(1)
    rng = make_rng(101)
    for _ in range(10):
        v = random_rational_vector(rng, 4)
        assert oracle_ad_star(a, metric4, v) == mat_scale(-1, ad_matrix(a, v))


@pytest.mark.parametrize("metric_name", ["identity", "generic"])
def test_ad_star_defining_identity(metric_name, metric4):
    metric = metric4 if metric_name == "identity" else GENERIC_GRAM
    rng = make_rng(7)
    for cid in range(5):
        a = catalog(cid)
        v = random_rational_vector(rng, 4)
        m = oracle_ad_star(a, metric, v)
        for _ in range(5):
            w = random_rational_vector(rng, 4)
            s = random_rational_vector(rng, 4)
            assert metric.inner(mat_vec(m, w), s) == metric.inner(w, a.bracket(v, s))


def test_levi_civita_abelian(metric4):
    conn = levi_civita(catalog(0), metric4)
    assert all(vec_is_zero(g) for row in conn.gamma for g in row)


def test_levi_civita_case3_values(metric4):
    conn = levi_civita(catalog(3), metric4)
    assert oracle_nabla(conn, Y, Y) == X
    assert oracle_nabla(conn, X, Y) == fr(0, 0, 0, 0)


def test_levi_civita_case1_values(metric4):
    conn = levi_civita(catalog(1), metric4)
    assert oracle_nabla(conn, Y, Z) == fr(0, 0, 0, "1/2")


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
            assert vec_sub(conn.gamma[i][j], conn.gamma[j][i]) == a.structure[i][j]
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
        lhs = 2 * metric4.inner(oracle_nabla(conn, u, v), w)
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
        vec_is_zero(table.r[i][j][k])
        for i in range(4)
        for j in range(4)
        for k in range(4)
    )


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


def assert_tables_match_oracles(algebra, metric):
    conn = levi_civita(algebra, metric)
    assert conn.gamma == oracle_levi_civita(algebra, metric).gamma
    assert all_fractions(conn.gamma)
    table = curvature_tensor(algebra, conn)
    assert table.r == oracle_curvature_tensor(algebra, conn).r
    assert all_fractions(table.r)


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
    assert_tables_match_oracles(*ORACLE_SPACES[space]())


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
    return algebra, spd_metric(draw(st.tuples(*[vector] * n)))


@settings(max_examples=40, deadline=None)
@given(random_spaces())
def test_integer_tables_equal_fraction_oracles_random(space):
    assert_tables_match_oracles(*space)


def assert_curvature_entries_match_oracle(algebra, metric):
    # the integer entries (i < j), read without a Fraction table, against the
    # Fraction oracle's; the Fraction table is built by the same integer core
    conn = levi_civita(algebra, metric)
    oracle = oracle_integer_curvature_tensor(algebra, conn)
    d, entries = sparse_entries(oracle)
    upper = tuple(e for e in entries if e[0] < e[1])
    assert metric._tables(algebra).curvature_entries == (d, upper)
    assert curvature_tensor(algebra, conn).r == oracle.r


@pytest.mark.parametrize("space", SPACES)
def test_curvature_entries_equal_fraction_oracle(space):
    assert_curvature_entries_match_oracle(*SPACES[space]())


@settings(max_examples=30, deadline=None)
@given(random_spaces(max_dim=6))
def test_curvature_entries_equal_fraction_oracle_random(space):
    assert_curvature_entries_match_oracle(*space)


def test_curvature_spot_values(metric4):
    a3 = catalog(3)
    t3 = curvature_tensor(a3, levi_civita(a3, metric4))
    assert oracle_of(t3, X, Y, Y) == fr(-1, 0, 0, 0)
    a1 = catalog(1)
    t1 = curvature_tensor(a1, levi_civita(a1, metric4))
    assert oracle_of(t1, Y, Z, Z) == fr(0, "1/4", 0, 0)


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
        assert oracle_of(table, u, v, w) == xl.vec_scale(-1, oracle_of(table, v, u, w))
        # first Bianchi identity
        total = vec_add(
            vec_add(oracle_of(table, u, v, w), oracle_of(table, v, w, u)),
            oracle_of(table, w, u, v),
        )
        assert vec_is_zero(total)
        # pair symmetry
        assert metric.inner(oracle_of(table, u, v, w), s) == metric.inner(
            oracle_of(table, w, s, u), v
        )


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
        u2 = vec_add(xl.vec_scale(alpha, u), xl.vec_scale(beta, v))
        v2 = vec_add(xl.vec_scale(gamma, u), xl.vec_scale(delta, v))
        assert sectional_curvature(a, metric4, u, v) == (
            sectional_curvature(a, metric4, u2, v2)
        )
