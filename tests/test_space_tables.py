"""The exact tables memoised per (algebra, metric) pair.

``MetricTensor._tables(algebra)`` builds the Q-independent tables of a space
once, on integer numerators: the lowered structure constants, the
connection and curvature numerators, the lowered [g, g] basis and the Gram,
``G2`` and ``R2`` forms.  Each is checked with ``==`` against the
``Fraction`` oracles in ``exact_oracles``; the memo must be shared by every
reader, separate for distinct algebra objects, immutable, and freed with
its metric.
"""

import gc
import weakref
from fractions import Fraction

import pytest

from lieranders import (
    catalog,
    classify_randers,
    compile_randers,
    douglas_subspace,
    flag_curvature_simplified,
    is_berwald,
    is_douglas,
    levi_civita,
    make_randers,
    sectional_curvature,
)
from lieranders import exactlinalg as xl
from lieranders import riemann
from lieranders.classify import berwald_subset
from lieranders.flagcurv import Flag

from conftest import SPACES, dense_metric, douglas_q, fr
from exact_oracles import (
    oracle_bivector_forms,
    oracle_derived_algebra,
    oracle_integer_curvature_tensor,
    oracle_levi_civita,
    oracle_lowered_structure,
)


def fractions(nums, d):
    return [Fraction(x, d) for x in nums]


def read_all(tables):
    """Every memoised table of ``tables``, by name."""
    names = ("lowered", "lowered_nonzeros", "connection", "curvature_entries",
             "derived_lowered", "forms")
    return {name: getattr(tables, name) for name in names}


@pytest.mark.parametrize("space", SPACES)
def test_memoised_tables_equal_fraction_oracles(space):
    algebra, metric = SPACES[space]()
    n = algebra.dim
    tables = metric._tables(algebra)
    assert tables.gram == metric._gram_numerators
    assert tables.inverse_gram == metric._inverse_gram_numerators

    lowered = oracle_lowered_structure(algebra, metric)
    flat = [x for ci in lowered for cij in ci for x in cij]
    assert fractions(*tables.lowered) == flat
    _, d = tables.lowered
    assert [(i, j, k, Fraction(x, d)) for i, j, k, x in tables.lowered_nonzeros] == [
        (i, j, k, lowered[i][j][k])
        for i in range(n) for j in range(n) for k in range(n) if lowered[i][j][k]
    ]

    conn = oracle_levi_civita(algebra, metric)
    assert fractions(*tables.connection) == [x for gi in conn.gamma for gij in gi for x in gij]

    curvature = oracle_integer_curvature_tensor(algebra, conn)
    d, entries = tables.curvature_entries
    assert {(i, j, k, l): Fraction(x, d) for i, j, k, l, x in entries} == {
        (i, j, k, l): curvature.r[i][j][k][l]
        for i in range(n) for j in range(i + 1, n) for k in range(n) for l in range(n)
        if curvature.r[i][j][k][l]
    }

    rows, d = tables.derived_lowered
    assert [fractions(row, d) for row in rows] == [
        list(xl.mat_vec(metric.gram, b)) for b in oracle_derived_algebra(algebra).basis
    ]

    got = tuple({idx: Fraction(x, d) for idx, x in terms} for terms, d in tables.forms)
    assert got == oracle_bivector_forms(algebra, metric, curvature)


@pytest.mark.parametrize("space", SPACES)
def test_readers_return_the_memo(space):
    algebra, metric = SPACES[space]()
    # the exact readers take their tables from the one memo entry of the
    # space and leave every memoised table in place
    tables = metric._tables(algebra)
    before = read_all(tables)
    n = algebra.dim
    q, e0, e1 = douglas_q(algebra, metric), xl.basis_vector(n, 0), xl.basis_vector(n, n - 1)
    douglas = douglas_subspace(algebra, metric)
    berwald_subset(algebra, metric, douglas)
    is_douglas(algebra, metric, q)
    is_berwald(algebra, metric, q)
    sectional_curvature(algebra, metric, e0, e1)
    conn = levi_civita(algebra, metric)
    assert metric._tables(algebra) is tables and list(metric._spaces) == [id(algebra)]
    assert all(getattr(tables, name) is value for name, value in before.items())
    assert [x for gi in conn.gamma for gij in gi for x in gij] == fractions(*tables.connection)


@pytest.mark.parametrize("space", SPACES)
def test_memo_values_are_tuples(space):
    def assert_tuples(value, where):
        if isinstance(value, int):
            return
        assert type(value) is tuple, (where, type(value))
        for item in value:
            assert_tuples(item, where)

    algebra, metric = SPACES[space]()
    for name, value in read_all(metric._tables(algebra)).items():
        assert_tuples(value, name)


@pytest.mark.parametrize("space", ["case2-identity", "case2-dense", "solv5-dense"])
def test_second_structure_reuses_the_curvature(space, monkeypatch):
    calls = []
    core = riemann._curvature_numerators

    def counted(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(riemann, "_curvature_numerators", counted)
    algebra, metric = SPACES[space]()
    q = douglas_q(algebra, metric)
    flag = Flag(v=xl.basis_vector(algebra.dim, 0), u=xl.basis_vector(algebra.dim, 1))
    first = compile_randers(make_randers(algebra, metric, q))
    second = make_randers(algebra, metric, tuple(x / 2 for x in q))
    compile_randers(second)
    flag_curvature_simplified(second, flag)
    classify_randers(second)
    assert len(calls) == 1
    assert first.r2 == compile_randers(second).r2


def test_equal_distinct_algebras_give_equal_tables():
    metric = dense_metric(4)
    a, b = catalog(2), catalog(2)
    assert a == b and a is not b
    assert metric._tables(a) is not metric._tables(b)
    assert read_all(metric._tables(a)) == read_all(metric._tables(b))
    q = douglas_q(a, metric)
    ra, rb = make_randers(a, metric, q), make_randers(b, metric, q)
    assert compile_randers(ra) == compile_randers(rb)
    for q in (q, fr(0, 0, "1/5", "1/7")):  # a Douglas and a generic Q
        ra, rb = make_randers(a, metric, q), make_randers(b, metric, q)
        assert classify_randers(ra) == classify_randers(rb)
        assert is_berwald(a, metric, q) == is_berwald(b, metric, q)


def test_memo_is_freed_with_its_metric():
    # with the cycle collector off, only refcounting can free the metric:
    # the memo must hold no reference back to it
    gc.disable()
    try:
        algebra, metric = catalog(2), dense_metric(4)
        r = make_randers(algebra, metric, douglas_q(algebra, metric))
        compile_randers(r)
        classify_randers(r)
        assert metric._spaces
        ref = weakref.ref(metric)
        del r, metric
        assert ref() is None
    finally:
        gc.enable()
