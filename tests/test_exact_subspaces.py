"""The Douglas subspace, its Berwald subset and sectional curvature.

``douglas_subspace``, ``berwald_subset`` and ``sectional_curvature`` read
the exact tables the metric keeps for the algebra (``MetricTensor._tables``)
and build no ``Fraction`` connection or curvature table.  Each is checked
with ``==`` against the ``Fraction`` oracles in ``exact_oracles``, on every
test space and on random rational structures; a guard makes sure that no
exact or sampled route goes back to ``levi_civita`` or ``curvature_tensor``;
and an algebra, a metric, a Q or a subspace of another dimension is
rejected instead of giving a verdict.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieranders import (
    DimensionMismatch,
    Flag,
    LieAlgebra,
    catalog,
    classify_randers,
    douglas_subspace,
    flag_curvature_deng_hou,
    flag_curvature_simplified,
    identity_metric,
    is_berwald,
    is_douglas,
    levi_civita,
    make_randers,
    reproduce_theorem,
    sectional_curvature,
    sign_certificate,
)
from lieranders import exactlinalg as xl
from lieranders.algebra import Subspace
from lieranders.classify import berwald_subset, expected_theorem_reports
from lieranders.sweep import make_rng, run_sweep

from conftest import SPACES, dense_metric, douglas_q, fr, random_flag_pair, spd_metric
from exact_oracles import (
    oracle_berwald_subset,
    oracle_douglas_subspace,
    oracle_sectional_curvature,
)


def subspaces_of(algebra, metric):
    """The Douglas subspace, one basis line, the whole space and {0}."""
    n = algebra.dim
    whole = Subspace.span([xl.basis_vector(n, i) for i in range(n)], n)
    line = Subspace.span([xl.basis_vector(n, n - 1)], n)
    return [douglas_subspace(algebra, metric), line, whole, Subspace.zero(n)]


def assert_matches_oracles(algebra, metric, planes):
    assert douglas_subspace(algebra, metric) == oracle_douglas_subspace(algebra, metric)
    for within in subspaces_of(algebra, metric):
        got = berwald_subset(algebra, metric, within)
        assert got == oracle_berwald_subset(algebra, metric, within), within
    r = make_randers(algebra, metric, xl.zero_vector(algebra.dim))
    for u, v in planes:
        want = oracle_sectional_curvature(algebra, metric, u, v)
        got = sectional_curvature(algebra, metric, u, v)
        assert got == want and type(got) is Fraction
        assert flag_curvature_deng_hou(r, Flag(v=v, u=u)).k_g == float(want)


@pytest.mark.parametrize("space", SPACES)
def test_subspaces_and_sectional_curvature_equal_oracles(space):
    algebra, metric = SPACES[space]()
    n = algebra.dim
    rng = make_rng(83)
    planes = [(xl.basis_vector(n, 0), xl.basis_vector(n, n - 1))]
    planes += [random_flag_pair(rng, n) for _ in range(4)]
    assert_matches_oracles(algebra, metric, planes)


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def random_spaces(draw):
    """Random antisymmetric rational structure constants (the identities
    checked hold without Jacobi), a metric P^T P + I and one plane."""
    n = draw(st.integers(min_value=2, max_value=6))
    vector = st.tuples(*[SMALL_RATIONALS] * n)
    brackets = {
        (i, j): draw(vector) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    }
    algebra = LieAlgebra.from_brackets(n, tuple(f"e{i}" for i in range(n)), brackets)
    p = draw(st.tuples(*[vector] * n))
    u, v = draw(vector), draw(vector)
    assume(xl.rank((u, v)) == 2)
    return algebra, spd_metric(p), [(u, v)]


@settings(max_examples=40, deadline=None)
@given(random_spaces())
def test_subspaces_and_sectional_curvature_equal_oracles_random(space):
    assert_matches_oracles(*space)


def test_exact_routes_build_no_fraction_tables(monkeypatch):
    # every reader takes the connection and the curvature from the memo; the
    # metrics are fresh, so the memo itself is built under the guard
    def refuse(*args):
        raise AssertionError("a Fraction connection or curvature table was built")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "lieranders"]:
        for name in ("levi_civita", "curvature_tensor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    got = [(rep.douglas, rep.berwald) for rep in reproduce_theorem()]
    assert got == [(rep.douglas, rep.berwald) for rep in expected_theorem_reports()]
    for case_id in (1, 2, 3, 4):
        algebra, metric = catalog(case_id), dense_metric(4)
        berwald_subset(algebra, metric, douglas_subspace(algebra, metric))
    algebra, metric = catalog(2), dense_metric(4)
    r = make_randers(algebra, metric, douglas_q(algebra, metric))
    flag = Flag(v=fr(1, 2, 3, 4), u=fr(0, 1, 0, 0))
    classify_randers(r)
    flag_curvature_simplified(r, flag)
    flag_curvature_deng_hou(r, flag)
    sectional_curvature(algebra, metric, flag.u, flag.v)
    assert sign_certificate(r).ok
    algebra, metric = catalog(3), dense_metric(4)
    assert len(run_sweep(make_randers(algebra, metric, douglas_q(algebra, metric)), 50, 7)) == 50


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_berwald(catalog(2), identity_metric(5), fr(0, 0, 0, "1/2")),
        lambda: is_berwald(catalog(2), identity_metric(4), fr(0, 0, 1)),
        lambda: levi_civita(catalog(2), identity_metric(3)),
        lambda: is_berwald(catalog(2), dense_metric(3), fr(0, 0, "1/2", 0)),
        lambda: levi_civita(catalog(2), dense_metric(3)),
        lambda: is_douglas(catalog(2), dense_metric(5), fr(0, 0, "1/2", 0)),
        lambda: douglas_subspace(catalog(2), identity_metric(3)),
        lambda: berwald_subset(catalog(2), identity_metric(4), Subspace.zero(3)),
        lambda: berwald_subset(catalog(2), identity_metric(4), Subspace.span([fr(1, 0, 0)], 3)),
        lambda: sectional_curvature(catalog(2), dense_metric(3), fr(1, 0, 0), fr(0, 1, 0)),
    ],
    ids=[
        "berwald-metric5", "berwald-q3", "levi-civita-metric3", "berwald-dense3",
        "levi-civita-dense3", "douglas-dense5", "douglas-subspace-metric3",
        "berwald-subset-zero3", "berwald-subset-line3", "sectional-dense3",
    ],
)
def test_mismatched_dimensions_are_rejected(call):
    with pytest.raises(DimensionMismatch):
        call()
