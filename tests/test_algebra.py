"""Structure constants, brackets, Jacobi and the derived algebra."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieranders import LieAlgebra, Subspace, catalog
from lieranders import exactlinalg as xl
from lieranders.errors import DimensionMismatch

from conftest import fr
from exact_oracles import dot, oracle_jacobi_check, vec_add

RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=5)
VECTORS = st.lists(RATIONALS, min_size=4, max_size=4).map(tuple)

X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))


def test_catalog_case1_bracket_table():
    a = catalog(1)
    assert a.bracket(Y, Z) == W
    assert a.bracket(Z, W) == Y
    assert a.bracket(W, Y) == Z
    for e in (Y, Z, W):
        assert a.bracket(X, e) == fr(0, 0, 0, 0)


def test_catalog_case2_orientation():
    # the table stores [X,Z] = X, so bracket(X, Z) must return X itself
    a = catalog(2)
    assert a.bracket(X, Z) == X
    assert a.bracket(Z, X) == fr(-1, 0, 0, 0)


def test_catalog_case4_half_is_exact():
    a = catalog(4)
    assert a.bracket(Z, W) == fr(0, "1/2", 0, 0)
    assert a.structure[2][3][1] == Fraction(1, 2)


def test_catalog_unknown_case():
    with pytest.raises(ValueError):
        catalog(5)


@given(u=VECTORS)
def test_bracket_with_self_vanishes(u):
    a = catalog(2)
    assert a.bracket(u, u) == fr(0, 0, 0, 0)


@given(u=VECTORS, v=VECTORS)
def test_bracket_antisymmetry(u, v):
    a = catalog(4)
    assert a.bracket(u, v) == xl.vec_scale(-1, a.bracket(v, u))


@given(u=VECTORS, w=VECTORS, v=VECTORS, alpha=RATIONALS, beta=RATIONALS)
def test_bracket_bilinearity(u, w, v, alpha, beta):
    a = catalog(1)
    lhs = a.bracket(vec_add(xl.vec_scale(alpha, u), xl.vec_scale(beta, w)), v)
    rhs = vec_add(
        xl.vec_scale(alpha, a.bracket(u, v)), xl.vec_scale(beta, a.bracket(w, v))
    )
    assert lhs == rhs


@given(
    p=RATIONALS, q=RATIONALS, a=RATIONALS, b=RATIONALS, c=RATIONALS, d=RATIONALS
)
def test_case2_bracket_closed_form(p, q, a, b, c, d):
    # independent expansion of the case-2 table:
    # [pZ+qW, aX+bY+cZ+dW] = (qb - pa) X - (pb + qa) Y
    alg = catalog(2)
    got = alg.bracket((Fraction(0), Fraction(0), p, q), (a, b, c, d))
    assert got == (q * b - p * a, -(p * b + q * a), Fraction(0), Fraction(0))
    # consistency: g([Q,V],V) = -p (a^2 + b^2) on the orthonormal basis
    assert dot(got, (a, b, c, d)) == -p * (a * a + b * b)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        catalog(1).bracket((Fraction(1),), X)


def test_jacobi_passes_on_catalog(algebras):
    for cid, a in algebras.items():
        assert a.jacobi_check() == [], f"case {cid}"


def test_jacobi_detects_corruption():
    # scaling [X,Z] in case 4 breaks the derivation property of ad_X
    # on the triple (X, Z, W); scaling [Z,W] alone would not
    bad = LieAlgebra.from_brackets(
        4,
        ("X", "Y", "Z", "W"),
        {
            (0, 1): fr(0, 1, 0, 0),
            (0, 2): fr(0, 0, 1, 0),
            (0, 3): fr(0, 0, 0, "1/2"),
            (2, 3): fr(0, "1/2", 0, 0),
        },
    )
    violations = bad.jacobi_check()
    assert violations
    assert (0, 2, 3) in [(i, j, k) for i, j, k, _ in violations]


COEFFICIENTS = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@given(st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(
        st.lists(COEFFICIENTS, min_size=n, max_size=n).map(tuple),
        min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2,
    ),
)))
def test_jacobi_check_equals_bracket_oracle(case):
    # random antisymmetric constants, mostly not a Lie algebra: the integer
    # sums must give the bracket route's violations, defects and types alike
    n, rows = case
    pairs = itertools.combinations(range(n), 2)
    algebra = LieAlgebra.from_brackets(n, [f"e{i}" for i in range(n)], dict(zip(pairs, rows)))
    got = algebra.jacobi_check()
    assert got == oracle_jacobi_check(algebra)
    assert all(type(x) is Fraction for *_, defect in got for x in defect)


def test_antisymmetry_enforced_at_construction():
    c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = Fraction(1)  # but c[1][0][0] left at 0
    with pytest.raises(ValueError):
        LieAlgebra(dim=2, labels=("a", "b"), structure=tuple(
            tuple(tuple(v) for v in row) for row in c
        ))


def test_list_built_algebra_equals_its_tuple_twin():
    twin = catalog(2)
    lists = [[list(cij) for cij in ci] for ci in twin.structure]
    labels = list(twin.labels)
    algebra = LieAlgebra(dim=4, labels=labels, structure=lists)
    assert algebra == twin and hash(algebra) == hash(twin)
    assert type(algebra.labels) is tuple
    assert all(type(cij) is tuple for ci in algebra.structure for cij in ci)
    lists[0][2][0] = 5  # the caller's lists are not the algebra's
    labels[0] = "T"
    assert algebra == twin and algebra.derived_algebra() == twin.derived_algebra()


@pytest.mark.parametrize("pair, c", [
    ((0, 1), [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]),  # [a, b] = a, [b, a] = 0
    ((0, 1), [[[0, 0], [1, 0]], [[Fraction(1, 2), 0], [0, 0]]]),
    ((0, 0), [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),  # [a, a] != 0
    ((1, 1), [[[0, 0], [0, 0]], [[0, 0], [0, Fraction(1, 3)]]]),
])
def test_antisymmetry_messages_on_lists_and_tuples(pair, c):
    message = re.escape(f"structure constants not antisymmetric at ({pair[0]},{pair[1]})")
    for structure in (c, tuple(tuple(map(tuple, ci)) for ci in c)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LieAlgebra(dim=2, labels=("a", "b"), structure=structure)


def test_float_structure_constants_rejected_at_construction():
    with pytest.raises(TypeError, match="1.5"):
        LieAlgebra(dim=2, labels=("a", "b"), structure=(((0, 0), (1.5, 0)), ((-1.5, 0), (0, 0))))


def test_dimension_zero_rejected_at_construction():
    # the exact tables need at least one basis vector
    message = r"^a Lie algebra needs dimension >= 1; got 0$"
    with pytest.raises(DimensionMismatch, match=message):
        LieAlgebra.from_brackets(0, [], {})
    with pytest.raises(DimensionMismatch, match=message):
        LieAlgebra(dim=0, labels=(), structure=())


@pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (0, 5), (2, 1)])
def test_from_brackets_rejects_indices_outside_the_basis(pair):
    # Python indexing would wrap -1 to the last basis vector
    message = re.escape(f"bracket ({pair[0]},{pair[1]}) names an index outside 0..1")
    with pytest.raises(DimensionMismatch, match=message):
        LieAlgebra.from_brackets(2, ("a", "b"), {pair: fr(1, 0)})


def test_self_bracket_rejected():
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(2, ("a", "b"), {(0, 0): fr(1, 0)})


def test_derived_algebra_abelian_is_zero(algebras):
    d = algebras[0].derived_algebra()
    assert d.basis == ()
    assert d.dim == 0


@pytest.mark.parametrize(
    "case_id,expected",
    [
        (1, (Y, Z, W)),
        (2, (X, Y)),
        (3, (Y, Z, W)),
        (4, (Y, Z, W)),
    ],
)
def test_derived_algebra_catalog(case_id, expected):
    assert catalog(case_id).derived_algebra() == Subspace.span(expected, 4)


def test_derived_algebra_idempotent_and_contained(algebras):
    for a in algebras.values():
        d = a.derived_algebra()
        assert Subspace.span(d.basis, 4) == d
        pairwise = [
            a.bracket(a.basis_vector(i), a.basis_vector(j))
            for i in range(4)
            for j in range(4)
        ]
        big = Subspace.span(pairwise, 4)
        for b in d.basis:
            assert big.contains(b)


def test_subspace_contains():
    s = Subspace.span([X, Y], 4)
    assert s.contains(fr(2, -3, 0, 0))
    assert not s.contains(Z)
    assert s.contains(fr(0, 0, 0, 0))
    assert Subspace.zero(4).contains(fr(0, 0, 0, 0))
    assert not Subspace.zero(4).contains(X)


def test_subspace_direct_construction_checks_basis():
    with pytest.raises(DimensionMismatch):
        Subspace(ambient_dim=4, basis=((1, 0),))
    with pytest.raises(ValueError, match="rref"):
        Subspace(2, ((2, 0),))  # spans what span([(1, 0)]) does, but not canonical
    with pytest.raises(ValueError, match="rref"):
        Subspace(2, ((0, 1), (1, 0)))  # rows out of pivot order
    assert Subspace(2, ((1, 0),)) == Subspace.span([(1, 0)], 2)


@pytest.mark.parametrize("basis", [[(1, 0)], [[1, 0]]], ids=["list-of-tuples", "list-of-lists"])
def test_list_built_subspace_equals_its_tuple_twin(basis):
    twin = Subspace.span([(1, 0)], 2)
    s = Subspace(ambient_dim=2, basis=basis)
    assert s == twin and hash(s) == hash(twin)
    assert type(s.basis) is tuple and type(s.basis[0]) is tuple


def test_subspace_direct_construction_refuses_non_rationals():
    # refused by type, before any arithmetic, as LieAlgebra and MetricTensor do
    with pytest.raises(TypeError, match=re.escape("refusing to coerce float 1.0 to an exact")):
        Subspace(2, ((1.0, 0.5),))
    with pytest.raises(TypeError, match=re.escape("refusing to coerce str '1/2'")):
        Subspace(2, ((1, "1/2"),))


ENTRIES = st.sampled_from([0, 0, 0, 1, 1, -1, 2, Fraction(1, 2)])


@given(
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(ENTRIES, min_size=n, max_size=n).map(tuple), max_size=4
    ).map(lambda rows: (n, rows))),
    st.booleans(),
    st.none() | st.tuples(st.integers(0, 15), ENTRIES),
)
def test_subspace_check_agrees_with_rref(case, reduce, tweak):
    # raw rows, their rref, or their rref with one entry changed; the
    # structural check accepts exactly the bases that are their own rref
    n, rows = case
    basis = [list(v) for v in (xl.rref(rows)[0] if reduce else rows)]
    if tweak and basis:
        k, value = tweak
        basis[k // n % len(basis)][k % n] = value
    basis = tuple(map(tuple, basis))
    canonical = xl.rref(basis)[0] == basis
    try:
        Subspace(n, basis)
    except ValueError as exc:
        assert "rref" in str(exc) and not canonical
    else:
        assert canonical


def test_subspace_span_of_int_rows_is_exact():
    basis = Subspace.span([(3, 1)], 2).basis
    assert basis == ((1, Fraction(1, 3)),)
    assert all(type(x) is Fraction for v in basis for x in v)


def test_subspace_contains_sums_of_int_rows():
    # (a, b + c, d) is the sum of the two spanning rows
    for a, b, c, d in itertools.product(range(1, 8), repeat=4):
        assert Subspace.span([(a, b, 0), (0, c, d)], 3).contains((a, b + c, d))


def test_subspace_describe():
    s = Subspace.span([fr(1, 0, 0, 0), fr(0, 0, "1/2", "1/2")], 4)
    assert s.describe(("X", "Y", "Z", "W")) == "span{X, Z + W}"
    assert Subspace.zero(4).describe(("X", "Y", "Z", "W")) == "{0}"


@pytest.mark.parametrize("v", [fr(1, 0, 0, 0, 1), fr(1, 0, 0)], ids=["long", "short"])
def test_subspace_contains_rejects_other_lengths(v):
    with pytest.raises(DimensionMismatch):
        Subspace.span([X], 4).contains(v)


@pytest.mark.parametrize("vectors", [[fr(1, 0)], [X, fr(1, 0, 0, 0, 1)]], ids=["short", "long"])
def test_subspace_span_rejects_other_lengths(vectors):
    with pytest.raises(DimensionMismatch):
        Subspace.span(vectors, 4)
