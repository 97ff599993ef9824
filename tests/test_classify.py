"""Douglas/Berwald criteria and the classification theorem."""

from fractions import Fraction

import pytest

from lieranders import (
    RandersClass,
    Subspace,
    catalog,
    classify_randers,
    douglas_subspace,
    is_berwald,
    is_douglas,
    make_randers,
    reproduce_theorem,
)
from lieranders import exactlinalg as xl
from lieranders.classify import berwald_subset, expected_theorem_reports
from lieranders.riemann import MetricTensor
from lieranders.sweep import make_rng

from conftest import fr, mat, random_rational, random_rational_vector

X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))


def test_is_douglas_case2_examples(metric4):
    a = catalog(2)
    ok, _ = is_douglas(a, metric4, fr(0, 0, "1/2", "1/3"))
    assert ok
    ok, evidence = is_douglas(a, metric4, fr("1/2", 0, 0, 0))
    assert not ok
    assert evidence and "1/2" in evidence[0]


def test_is_douglas_abelian_always(metric4):
    a = catalog(0)
    rng = make_rng(3)
    for _ in range(5):
        ok, evidence = is_douglas(a, metric4, random_rational_vector(rng, 4))
        assert ok and not evidence


@pytest.mark.parametrize(
    "case_id,expected",
    [(1, (X,)), (2, (Z, W)), (3, (X,)), (4, (X,))],
)
def test_douglas_subspace_catalog(case_id, expected, metric4):
    assert douglas_subspace(catalog(case_id), metric4) == Subspace.span(expected, 4)


def test_douglas_subspace_decomposition(metric4):
    generic = MetricTensor(
        gram=mat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]])
    )
    for metric in (metric4, generic):
        for cid in range(5):
            a = catalog(cid)
            derived = a.derived_algebra()
            douglas = douglas_subspace(a, metric)
            assert derived.dim + douglas.dim == 4
            combined = Subspace.span(list(derived.basis) + list(douglas.basis), 4)
            assert combined.dim == 4


def test_is_berwald_examples(metric4):
    assert is_berwald(catalog(1), metric4, fr("1/2", 0, 0, 0))[0]
    assert is_berwald(catalog(2), metric4, fr(0, 0, 0, "1/2"))[0]
    ok, evidence = is_berwald(catalog(4), metric4, fr("1/2", 0, 0, 0))
    assert not ok
    assert any("nabla_Y Q = -" in line and "Y" in line for line in evidence)


def test_classify_examples(metric4):
    m = metric4
    r = make_randers(catalog(2), m, fr(0, 0, "1/2", 0))
    assert classify_randers(r).kind is RandersClass.NON_BERWALD_DOUGLAS
    r = make_randers(catalog(3), m, fr("1/2", 0, 0, 0))
    assert classify_randers(r).kind is RandersClass.NON_BERWALD_DOUGLAS
    r = make_randers(catalog(1), m, fr("1/2", 0, 0, 0))
    assert classify_randers(r).kind is RandersClass.BERWALD_DOUGLAS
    r = make_randers(catalog(2), m, fr("1/2", 0, 0, 0))
    result = classify_randers(r)
    assert result.kind is RandersClass.NOT_DOUGLAS
    assert result.evidence


def test_classify_zero_q_is_berwald(metric4):
    for cid in range(5):
        r = make_randers(catalog(cid), metric4, fr(0, 0, 0, 0))
        assert classify_randers(r).kind is RandersClass.BERWALD_DOUGLAS


def test_berwald_implies_douglas(metric4):
    # sampled over all catalog cases with random exact q
    rng = make_rng(29)
    for cid in range(5):
        a = catalog(cid)
        for _ in range(20):
            q = random_rational_vector(rng, 4)
            if is_berwald(a, metric4, q)[0]:
                assert is_douglas(a, metric4, q)[0]


def test_classification_scale_invariant(metric4):
    rng = make_rng(57)
    for cid in (1, 2, 3, 4):
        a = catalog(cid)
        for _ in range(10):
            q = xl.vec_scale(Fraction(1, 20), random_rational_vector(rng, 4))
            lam = random_rational(rng, 5, 3)
            if lam == 0:
                continue
            scaled = xl.vec_scale(lam, q)
            if metric4.inner(q, q) >= 1 or metric4.inner(scaled, scaled) >= 1:
                continue
            k1 = classify_randers(make_randers(a, metric4, q)).kind
            k2 = classify_randers(make_randers(a, metric4, scaled)).kind
            assert k1 is k2


def test_reproduce_theorem_matches_expected_tables():
    computed = reproduce_theorem()
    expected = expected_theorem_reports()
    assert len(computed) == 4
    for got, want in zip(computed, expected):
        assert got.case_id == want.case_id
        assert got.douglas == want.douglas
        assert got.berwald == want.berwald


def test_case_reports_nest_berwald_in_douglas():
    for report in reproduce_theorem():
        for b in report.berwald.basis:
            assert report.douglas.contains(b)


def test_berwald_subset_of_zero_subspace(metric4):
    a = catalog(3)
    assert berwald_subset(a, metric4, Subspace.zero(4)) == Subspace.zero(4)


def test_berwald_subset_case2_is_w_line(metric4):
    a = catalog(2)
    douglas = douglas_subspace(a, metric4)
    assert berwald_subset(a, metric4, douglas) == Subspace.span([W], 4)
