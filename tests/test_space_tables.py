"""The exact tables memoised per (algebra, metric) pair.

``MetricTensor._tables(algebra)`` builds the Q-independent tables of a space
once, on integer numerators: the connection (in lowest terms) and curvature
numerators, the lowered [g, g] basis, the Douglas subspace, the compile
base (the Gram, ``G2`` and ``R2`` forms) and the direction table: per basis
direction e_i, the forms g(e_i, .), ``A_i`` and ``T_i`` of g(Q, .), A and C
at Q = e_i, which a compile contracts with Q.  Each is checked with ``==``
against the ``Fraction`` oracles in ``exact_oracles``, the forms as
polynomials, and the integer structure, Gram and connection tables as nested
rows of ints, the tensors they are; the memo must be shared by every reader
and every compile, separate for distinct algebra objects, immutable, and
freed with its metric.
"""

import gc
import math
import random
import weakref
from collections import defaultdict
from fractions import Fraction
from types import MappingProxyType

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
from lieranders.riemann import IntegerForm

from conftest import SPACES, dense_metric, douglas_q, fr
from exact_oracles import (
    mat_vec,
    oracle_bivector_forms,
    oracle_correction_forms,
    oracle_derived_algebra,
    oracle_douglas_subspace,
    oracle_integer_curvature_tensor,
    oracle_levi_civita,
    polynomial,
    symmetrised,
)


def fractions(nums, d):
    return [Fraction(x, d) for x in nums]


def rows_over(table, d, n, depth):
    """The integer ``table`` over ``d`` as nested tuples of Fractions; each of
    its ``depth`` levels must be an ``n``-tuple and each entry an int."""
    if depth == 0:
        assert type(table) is int
        return Fraction(table, d)
    assert type(table) is tuple and len(table) == n
    return tuple(rows_over(x, d, n, depth - 1) for x in table)


def read_all(tables):
    """Every memoised table of ``tables``, by name."""
    names = ("connection", "curvature_entries", "derived_lowered", "compile_base", "directions")
    return {name: getattr(tables, name) for name in names}


@pytest.mark.parametrize("space", SPACES)
def test_memoised_tables_equal_fraction_oracles(space):
    algebra, metric = SPACES[space]()
    n = algebra.dim
    tables = metric._tables(algebra)
    assert tables.gram == metric._gram_numerators
    assert tables.inverse_gram == metric._inverse_gram_numerators

    # the integer tables keep the nested rows of the tensors they are
    assert rows_over(*algebra._structure_numerators, n, 3) == algebra.structure
    assert rows_over(*metric._gram_numerators, n, 2) == metric.gram
    assert rows_over(*metric._inverse_gram_numerators, n, 2) == metric.inverse_gram
    conn = oracle_levi_civita(algebra, metric)
    assert rows_over(*tables.connection, n, 3) == conn.gamma

    curvature = oracle_integer_curvature_tensor(algebra, conn)
    d, entries = tables.curvature_entries
    assert {(i, j, k, l): Fraction(x, d) for i, j, k, l, x in entries} == {
        (i, j, k, l): curvature.r[i][j][k][l]
        for i in range(n) for j in range(i + 1, n) for k in range(n) for l in range(n)
        if curvature.r[i][j][k][l]
    }

    rows, d = tables.derived_lowered
    assert [fractions(row, d) for row in rows] == [
        list(mat_vec(metric.gram, b)) for b in oracle_derived_algebra(algebra).basis
    ]

    # the forms are stored as symmetric monomials: compared as polynomials
    forms = tables.compile_base
    assert tuple(map(polynomial, forms)) == tuple(
        map(symmetrised, oracle_bivector_forms(algebra, metric, curvature))
    )
    assert all(all(form.terms.values()) for form in forms)
    assert all(idx == tuple(sorted(idx)) for form in forms for idx in form.terms)


@pytest.mark.parametrize("space", SPACES)
def test_connection_is_in_lowest_terms(space):
    algebra, metric = SPACES[space]()
    gamma, d = metric._tables(algebra).connection
    assert math.gcd(d, *(x for gi in gamma for row in gi for x in row)) == 1


@pytest.mark.parametrize("space", SPACES)
def test_compiles_share_the_read_only_forms(space):
    # the Gram, G2 and R2 forms are built once per space; compiles with
    # different Q (on so3 the only Douglas Q is 0) hand out the same objects
    algebra, metric = SPACES[space]()
    q = douglas_q(algebra, metric)
    first = compile_randers(make_randers(algebra, metric, q))
    second = compile_randers(make_randers(algebra, metric, tuple(x / 2 for x in q)))
    for name in ("gram", "g2", "r2"):
        form = getattr(first, name)
        assert getattr(second, name) is form, name
        key = (0, 0)  # R2 is empty on the abelian case 0
        with pytest.raises(TypeError):
            form.terms[key] = 1
        with pytest.raises(TypeError):
            del form.terms[key]
        tampered = form._replace(terms={**form.terms, key: form.terms.get(key, 0) + 1})
        assert tampered.terms[key] == form.terms.get(key, 0) + 1 and tampered.d == form.d


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
    compile_randers(make_randers(algebra, metric, q))
    conn = levi_civita(algebra, metric)
    assert metric._tables(algebra) is tables and list(metric._spaces) == [id(algebra)]
    assert all(getattr(tables, name) is value for name, value in before.items())
    assert rows_over(*tables.connection, n, 3) == conn.gamma


@pytest.mark.parametrize("space", SPACES)
def test_memo_values_are_tuples(space):
    def assert_tuples(value, where):
        if isinstance(value, int):
            return
        if type(value) is MappingProxyType:  # the read-only terms of a shared form
            value = tuple(value.items())
        assert type(value) in (tuple, IntegerForm), (where, type(value))
        for item in value:
            assert_tuples(item, where)

    algebra, metric = SPACES[space]()
    for name, value in read_all(metric._tables(algebra)).items():
        assert_tuples(value, name)


@pytest.mark.parametrize("space", SPACES)
def test_direction_table_equals_fraction_oracles(space):
    # directions[i] is (g(e_i, .), A_i, T_i): g(Q, .), A and C at Q = e_i,
    # built for every basis direction; A and C are linear in Q, so the pair
    # loop at a valid multiple t e_i, divided by t, gives them
    algebra, metric = SPACES[space]()
    n = algebra.dim
    directions = metric._tables(algebra).directions
    assert type(directions) is tuple and len(directions) == n
    for i, forms in enumerate(directions):
        assert type(forms) is tuple and len(forms) == 3
        t = Fraction(1, 2 + math.ceil(metric.gram[i][i]))
        e_i = xl.basis_vector(n, i)
        quad, cubic = oracle_correction_forms(make_randers(algebra, metric, xl.vec_scale(t, e_i)))
        assert tuple(map(polynomial, forms)) == (
            {(m,): x for m, x in enumerate(metric.gram[i]) if x},
            symmetrised({idx: x / t for idx, x in quad.items()}),
            symmetrised({idx: x / t for idx, x in cubic.items()}),
        )
        for form in forms:
            assert type(form) is IntegerForm and type(form.terms) is MappingProxyType
            assert all(idx == tuple(sorted(idx)) and x for idx, x in form.terms.items())


@pytest.mark.parametrize("space", SPACES)
def test_direction_tensors_are_built_per_nonzero_q_coordinate(space):
    # a compile's g(Q, .), A and C are sum_i q_i times the direction forms,
    # one term per nonzero coordinate q_i, over the forms' denominator times
    # Q's; the table is built once and read by every compile of the space
    algebra, metric = SPACES[space]()
    tables = metric._tables(algebra)
    rng = random.Random(space)
    basis = douglas_subspace(algebra, metric).basis
    mixes = [[Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in basis] for _ in range(4)]
    qs = [douglas_q(algebra, metric), *basis] + [
        tuple(sum((t * b[i] for t, b in zip(mix, basis)), Fraction(0)) for i in range(algebra.dim))
        for mix in mixes
    ]
    directions = tables.directions
    for q in qs:
        q = tuple(x / (1 + math.ceil(metric.inner(q, q))) for x in q)
        compiled = compile_randers(make_randers(algebra, metric, q))
        assert tables.directions is directions
        dq = xl.common_denominator(q)[1]
        for k, name in enumerate(("gq", "a", "c")):
            form = getattr(compiled, name)
            want = defaultdict(Fraction)
            for qi, forms in zip(q, directions):
                for idx, x in polynomial(forms[k]).items():
                    want[idx] += qi * x
            assert polynomial(form) == {idx: x for idx, x in want.items() if x}
            assert all(form.terms.values()) and form.d == directions[0][k].d * dq


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


@pytest.mark.parametrize("space", ["case2-identity", "case2-dense", "solv5-dense"])
def test_douglas_subspace_is_reduced_once(space, monkeypatch):
    calls = []
    core = xl.nullspace

    def counted(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(xl, "nullspace", counted)
    algebra, metric = SPACES[space]()
    first = douglas_subspace(algebra, metric)
    assert len(calls) == 1
    second = douglas_subspace(algebra, metric)
    assert len(calls) == 1 and second is first
    assert first == oracle_douglas_subspace(algebra, metric)


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
