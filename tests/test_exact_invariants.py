"""Memoised exact invariants and the integer Douglas and Berwald tests.

``LieAlgebra`` keeps [g, g] and its structure numerators, ``MetricTensor``
its Gram and inverse-Gram numerators; ``inner``, ``bracket``, ``is_douglas``
and ``is_berwald`` sum Python ints over them.  Each is checked with ``==``
against the ``Fraction`` oracles in ``exact_oracles``, evidence strings
included, and the memoised attributes must leave equality, hashing and
``repr`` of the frozen objects alone.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieranders import (
    LieAlgebra,
    MetricTensor,
    catalog,
    douglas_subspace,
    identity_metric,
    is_berwald,
    is_douglas,
)
from lieranders import exactlinalg as xl
from lieranders.sweep import make_rng

from conftest import SO3, SOLV5, SPACES, dense_metric, random_rational_vector, spd_metric
from exact_oracles import (
    oracle_bracket,
    oracle_derived_algebra,
    oracle_inner,
    oracle_is_berwald,
    oracle_is_douglas,
    vec_add,
)


def all_fractions(vector):
    return all(type(x) is Fraction for x in vector)


def assert_matches_oracles(algebra, metric, q, u, v):
    got = metric.inner(u, v)
    assert got == oracle_inner(metric, u, v) and type(got) is Fraction
    got = algebra.bracket(u, v)
    assert got == oracle_bracket(algebra, u, v) and all_fractions(got)
    assert algebra.derived_algebra() == oracle_derived_algebra(algebra)
    assert is_douglas(algebra, metric, q) == oracle_is_douglas(algebra, metric, q)
    assert is_berwald(algebra, metric, q) == oracle_is_berwald(algebra, metric, q)


@pytest.mark.parametrize("space", SPACES)
def test_invariants_equal_fraction_oracles(space):
    algebra, metric = SPACES[space]()
    n = algebra.dim
    rng = make_rng(97)
    douglas = douglas_subspace(algebra, metric).basis
    qs = [xl.zero_vector(n), xl.basis_vector(n, 0), *douglas]
    qs += [random_rational_vector(rng, n) for _ in range(4)]
    for q in qs:
        u, v = random_rational_vector(rng, n), random_rational_vector(rng, n)
        assert_matches_oracles(algebra, metric, q, u, v)
        assert_matches_oracles(algebra, metric, q, xl.basis_vector(n, n - 1), q)


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def random_cases(draw):
    """Random antisymmetric rational structure constants (Jacobi is not
    needed: both tests are identities of the formulas), a metric P^T P + I
    or the identity, and Q zero, in the Douglas subspace or arbitrary."""
    n = draw(st.integers(min_value=2, max_value=6))
    vector = st.tuples(*[SMALL_RATIONALS] * n)
    brackets = {
        (i, j): draw(vector) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    }
    algebra = LieAlgebra.from_brackets(n, tuple(f"e{i}" for i in range(n)), brackets)
    if draw(st.booleans()):
        p = draw(st.tuples(*[vector] * n))
        metric = spd_metric(p)
    else:
        metric = identity_metric(n)
    kind = draw(st.sampled_from(["zero", "douglas", "any"]))
    if kind == "zero":
        q = xl.zero_vector(n)
    elif kind == "douglas":
        q = xl.zero_vector(n)
        for b in douglas_subspace(algebra, metric).basis:
            q = vec_add(q, xl.vec_scale(draw(SMALL_RATIONALS), b))
    else:
        q = draw(vector)
    return algebra, metric, q, draw(vector), draw(vector)


@settings(max_examples=60, deadline=None)
@given(random_cases())
def test_invariants_equal_fraction_oracles_random(case):
    assert_matches_oracles(*case)


def test_derived_algebra_is_computed_once():
    for algebra in (catalog(2), SO3, SOLV5):
        assert algebra.derived_algebra() is algebra.derived_algebra()


def test_memoised_attributes_leave_identity_alone():
    fresh_algebra, algebra = catalog(4), catalog(4)
    fresh_metric, metric = dense_metric(4), dense_metric(4)
    before = (repr(algebra), hash(algebra), repr(metric), hash(metric))
    q = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    algebra.derived_algebra()
    algebra.bracket(q, algebra.basis_vector(2))
    metric.inner(q, q)
    is_douglas(algebra, metric, q)
    is_berwald(algebra, metric, q)
    assert {"_derived", "_structure_numerators"} <= set(vars(algebra))
    assert {"_gram_numerators", "_inverse_gram_numerators"} <= set(vars(metric))
    assert (repr(algebra), hash(algebra), repr(metric), hash(metric)) == before
    assert algebra == fresh_algebra and fresh_algebra == algebra
    assert metric == fresh_metric and fresh_metric == metric
    assert hash(algebra) == hash(fresh_algebra) and hash(metric) == hash(fresh_metric)
    assert [f.name for f in dataclasses.fields(LieAlgebra)] == ["dim", "labels", "structure"]
    assert [f.name for f in dataclasses.fields(MetricTensor)] == ["gram"]
