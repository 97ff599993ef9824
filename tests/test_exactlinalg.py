import re
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieranders import (
    ComplexStructureTriple,
    Flag,
    LieAlgebra,
    MetricTensor,
    Subspace,
    identity_metric,
    make_randers,
    verify_complex_structure,
)
from lieranders import exactlinalg as xl
from lieranders.errors import DefinitionError, DegenerateFlag, DimensionMismatch

from conftest import mat
from exact_oracles import (
    dot,
    oracle_derived_algebra,
    oracle_nullspace,
    oracle_rref,
    oracle_spd_inverse,
)

RATIONALS = st.fractions(min_value=-10, max_value=10, max_denominator=6)


# every constructor or elimination that takes exact input, with a 2-dimensional
# input holding one non-rational entry ``bad``
EXACT_ENTRY_POINTS = {
    "LieAlgebra": lambda bad: LieAlgebra(2, ("a", "b"), (((0, 0), (bad, 0)), ((bad, 0), (0, 0)))),
    "from_brackets": lambda bad: LieAlgebra.from_brackets(2, ("a", "b"), {(0, 1): (bad, 0)}),
    "MetricTensor": lambda bad: MetricTensor(gram=((2, 0), (0, bad))),
    "Subspace": lambda bad: Subspace(2, ((1, bad),)),
    "ComplexStructureTriple": lambda bad: ComplexStructureTriple(
        j1=((0, -1), (1, bad)), j2=((0, -1), (1, 0)), j3=((0, -1), (1, 0))
    ),
    "verify_complex_structure": lambda bad: verify_complex_structure(
        LieAlgebra.from_brackets(2, ("a", "b"), {}), ((0, -1), (1, bad))
    ),
    "Flag": lambda bad: Flag(v=(bad, 0), u=(0, 1)),
    "make_randers": lambda bad: make_randers(
        LieAlgebra.from_brackets(2, ("a", "b"), {}), identity_metric(2), (bad, 0)
    ),
    "rref": lambda bad: xl.rref(((1, 2), (3, bad))),
    "nullspace": lambda bad: xl.nullspace(((1, bad),), 2),
    "spd_inverse": lambda bad: xl.spd_inverse(((2, 0), (0, bad))),
}


@pytest.mark.parametrize(
    "bad",
    [0.5, "1/2", Decimal("0.5"), np.int64(2**31), np.int32(3)],
    ids=["float", "str", "decimal", "int64", "int32"],
)
@pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS)
def test_exact_entry_points_refuse_non_rationals(entry, bad):
    # one gate, common_denominator, refuses by type before any arithmetic: a
    # numpy integer has a ``denominator`` too, and its products wrap around
    message = f"refusing to coerce {type(bad).__name__} {bad!r} to an exact rational"
    with pytest.raises(TypeError, match=re.escape(message)):
        EXACT_ENTRY_POINTS[entry](bad)


def test_parse_rational_bounds_the_decimal_exponent():
    assert xl.parse_rational("1e4300", "x") == 10**4300
    assert xl.parse_rational("-2.5E-4300", "x") == Fraction(-25, 10**4301)
    assert xl.parse_rational(" 3/4 ", "x") == Fraction(3, 4)
    for token in ["1e4301", "1e-9999999", "1e+1_000_000"]:
        with pytest.raises(DefinitionError) as exc:
            xl.parse_rational(token, "x")
        assert str(exc.value) == f"x: bad rational {token!r} (exponent above 4300 in magnitude)"
    for token in ["1/0", "x", "1/2/3", "1e", "e5", "1.5/2"]:
        with pytest.raises(DefinitionError) as exc:
            xl.parse_rational(token, "x")
        assert str(exc.value) == f"x: bad rational {token!r}"
    # an exponent too long for int() is refused as malformed, quoted by an excerpt
    with pytest.raises(DefinitionError) as exc:
        xl.parse_rational("1e" + "9" * 5000, "x")
    assert str(exc.value) == "x: bad rational '1e9999999999...9999999999999'"


@pytest.mark.parametrize(
    "token", ["1e" + "9" * 10**6, "1/" * 500000 + "1", "x" * 10**6, "1e+" + "1" * 10**6],
    ids=["long-exponent", "slashes", "letters", "exponent-run"],
)
def test_parse_rational_quotes_a_bounded_excerpt(token):
    with pytest.raises(DefinitionError) as exc:
        xl.parse_rational(token, "Q[0]")
    message = str(exc.value)
    assert message.startswith("Q[0]: bad rational '" + token[:12] + "...")
    assert len(message) < 100


def test_parse_rational_quotes_short_tokens_whole():
    for token in ["x" * 30, "1/2/" + "3" * 26, "a'b" * 10, "\\" * 15]:
        with pytest.raises(DefinitionError) as exc:
            xl.parse_rational(token, "x")
        assert str(exc.value) == f"x: bad rational {token!r}"
    token = "1e" + "9" * 28
    with pytest.raises(DefinitionError) as exc:
        xl.parse_rational(token, "x")
    assert str(exc.value) == f"x: bad rational {token!r} (exponent above 4300 in magnitude)"
    with pytest.raises(DefinitionError) as exc:
        xl.parse_rational("x" * 31, "x")
    assert str(exc.value) == "x: bad rational 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"


def test_parse_rational_bounds_digit_runs():
    # a run of digits as Fraction reads it, underscores between digits too
    assert xl.parse_rational("9" * 4300, "x") == int("9" * 4300)
    assert xl.parse_rational("0." + "0" * 4299 + "1", "x") == Fraction(1, 10**4300)
    assert xl.parse_rational("1_" * 2150 + "1", "x") == int("1" * 2151)
    for token in ["1" * 4301, "0." + "0" * 10**6 + "1", "1/" + "7" * 4301, "1_" * 4300 + "1"]:
        t0 = time.perf_counter()
        with pytest.raises(DefinitionError) as exc:
            xl.parse_rational(token, "x")
        assert time.perf_counter() - t0 < 1.0
        message = str(exc.value)
        assert message.startswith("x: bad rational ")
        assert message.endswith(" (a run of more than 4300 digits)") and len(message) < 100


def test_rref_canonical_form():
    rows = mat([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = xl.rref(rows)
    assert pivots == (0, 1)
    assert reduced == mat([[1, 0, -1], [0, 1, 2]])


def test_rref_idempotent():
    rows = mat([[2, 4, 6, 0], [1, 2, 3, 1], [0, 0, 0, 5]])
    once, _ = xl.rref(rows)
    twice, _ = xl.rref(once)
    assert once == twice


def test_rref_of_int_rows_is_exact():
    # 1 / pivot is a float on int rows unless rref converts them first
    reduced, pivots = xl.rref(((3, 1), (0, 0)))
    assert reduced == ((1, Fraction(1, 3)),) and pivots == (0,)
    assert all(type(x) is Fraction for row in reduced for x in row)


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "str"])
def test_rref_rejects_non_rational_entries(bad):
    message = f"refusing to coerce {type(bad).__name__} {bad!r} to an exact rational"
    with pytest.raises(TypeError, match=re.escape(message)):
        xl.rref(((1, 2), (3, bad)))


@pytest.mark.parametrize(
    "rows", [((1,), (3, 4)), ((1, 2), (0,))], ids=["short-first", "long-first"]
)
def test_rref_rejects_ragged_rows(rows):
    # zip would cut the longer row, or indexing would run off the shorter one
    with pytest.raises(DimensionMismatch, match=re.escape("got [1, 2]")):
        xl.rref(rows)


def test_nullspace_orthogonal_to_rows():
    m = mat([[1, 2, 3, 4], [0, 1, 1, 0]])
    basis = xl.nullspace(m, 4)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert dot(row, v) == 0


def test_nullspace_of_invertible_is_empty():
    assert xl.nullspace(xl.identity_matrix(3), 3) == ()


def test_nullspace_of_no_rows_is_everything():
    assert xl.nullspace((), 3) == xl.identity_matrix(3)
    assert xl.nullspace((), 0) == ()


def test_nullspace_rejects_rows_of_another_length():
    with pytest.raises(DimensionMismatch):
        xl.nullspace(((1, 2),), 3)


def test_mat_mul_serves_integer_and_fraction_rows():
    a, b = ((1, 2), (3, 4)), ((0, -1), (5, 6))
    product = xl.mat_mul(a, b)
    assert product == ((10, 11), (20, 21))
    assert {type(x) for row in product for x in row} == {int}
    assert xl.mat_mul(mat([[1, 2], [3, 4]]), b) == product
    half = ((Fraction(1, 2),),)
    assert xl.mat_mul(half, ((Fraction(2, 3), 1),)) == ((Fraction(1, 3), Fraction(1, 2)),)
    assert xl.mat_mul((), ()) == ()


@pytest.mark.parametrize(
    "a, b",
    [(((1, 2),), ((1,),)), (((1,),), ((1, 2), (3,))), (((1, 2), (3,)), ((1,), (2,)))],
    ids=["inner-length", "ragged-right", "ragged-left"],
)
def test_mat_mul_rejects_rows_of_mismatched_length(a, b):
    with pytest.raises(DimensionMismatch):
        xl.mat_mul(a, b)


def test_inverse():
    a = mat([[2, 1], [1, 3]])
    assert xl.mat_mul(a, xl.spd_inverse(a)) == xl.identity_matrix(2)


def laplace_det(a):
    """Determinant by cofactor expansion along the first row, in Fractions."""
    if not a:
        return Fraction(1)
    return sum(
        (-1) ** j * x * laplace_det(tuple(row[:j] + row[j + 1 :] for row in a[1:]))
        for j, x in enumerate(a[0])
        if x
    )


def test_positive_definite_pivots():
    for a in (
        mat([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),  # minors 2, 3, 4
        ((2, 1), (1, 1)),  # int entries divide exactly
    ):
        inv = xl.spd_inverse(a)
        assert xl.mat_mul(a, inv) == xl.identity_matrix(len(a))
        assert all(type(x) is Fraction for row in inv for x in row)
    assert xl.spd_inverse(mat([[1, 2], [2, 1]])) is None  # minors 1, -3
    assert xl.spd_inverse(mat([[0, 0], [0, 1]])) is None  # first minor 0
    assert xl.spd_inverse(mat([[1, 1], [1, 1]])) is None  # singular
    assert xl.spd_inverse(mat([[-1, 0], [0, -1]])) is None
    assert xl.spd_inverse(()) == ()


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(RATIONALS, min_size=n * n, max_size=n * n),
        st.integers(0, 20),
    )
))
def test_positive_definite_agrees_with_leading_minors(case):
    # Sylvester's criterion from cofactor determinants, no elimination
    n, entries, shift = case
    a = tuple(
        tuple(entries[min(i, j) * n + max(i, j)] + (shift if i == j else 0) for j in range(n))
        for i in range(n)
    )
    minors = [laplace_det(tuple(row[:k] for row in a[:k])) for k in range(1, n + 1)]
    inv = xl.spd_inverse(a)
    assert (inv is None) == any(m <= 0 for m in minors)
    if inv is not None:
        assert xl.mat_mul(a, inv) == xl.identity_matrix(n)


@given(st.lists(st.lists(RATIONALS, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_rows_span_input(rows):
    m = tuple(tuple(r) for r in rows)
    reduced, _ = xl.rref(m)
    # every reduced row lies in the row space and vice versa
    assert xl.rank(list(m) + list(reduced)) == xl.rank(m) == len(reduced)


INT_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4)
)


@given(INT_MATRICES)
def test_int_rows_match_their_fraction_copies(rows):
    # ints enter the eliminations as they are: every result equals the one on
    # the Fraction copy, so no float ever enters
    n = len(rows[0]) if rows else 3
    copy = [[Fraction(x) for x in row] for row in rows]
    assert xl.rref(rows) == xl.rref(copy)
    assert xl.nullspace(rows, n) == xl.nullspace(copy, n)
    # a square block, rarely positive definite, and the Gram matrix P^T P + I
    k = min(len(rows), n)
    p = [row[:k] for row in rows[:k]]
    gram = [[sum(r[i] * r[j] for r in p) + (i == j) for j in range(k)] for i in range(k)]
    for a in (p, gram):
        assert xl.spd_inverse(a) == xl.spd_inverse([[Fraction(x) for x in row] for row in a])


def test_common_denominator_empty():
    assert xl.common_denominator([]) == ([], 1)


def test_common_denominator_integers():
    assert xl.common_denominator([3, -2, 0]) == ([3, -2, 0], 1)
    assert xl.common_denominator([Fraction(4), Fraction(0)]) == ([4, 0], 1)


def test_common_denominator_negatives_and_least_d():
    values = [Fraction(-1, 6), Fraction(3, 4), Fraction(-5, 9), 2]
    nums, d = xl.common_denominator(values)
    assert d == 36  # lcm(6, 4, 9), not the product 216
    assert nums == [-6, 27, -20, 72]
    assert [Fraction(x, d) for x in nums] == values


@given(st.lists(RATIONALS, max_size=8))
def test_common_denominator_is_least(values):
    nums, d = xl.common_denominator(values)
    assert all(isinstance(x, int) for x in nums)
    assert [Fraction(x, d) for x in nums] == values
    # no proper divisor d/p of d is a common denominator
    for p in range(2, d + 1):
        if d % p == 0:
            assert any((d // p) % v.denominator for v in values)


def test_independent_pair_edge_cases():
    # a Flag needs rank((v, u)) == 2
    pairs = [
        ((Fraction(1, 2),), (Fraction(3),)),  # dimension 1
        ((0, 0, 0), (1, 2, 3)),  # zero vector
        ((1, 2, 3), (0, 0, 0)),
        ((), ()),
        ((1, Fraction(2, 3)), (Fraction(3, 2), 1)),
    ]
    for v, u in pairs:
        assert xl.rank((v, u)) < 2
        with pytest.raises(DegenerateFlag):
            Flag(v=v, u=u)
    v, u = (1, Fraction(2, 3)), (Fraction(3, 2), Fraction(1, 2))
    assert xl.rank((v, u)) == 2 and Flag(v=v, u=u).u == u
    for v, u in [((1, 0), (0, 1, 0)), ((1, 0, 0), (0, 1))]:
        with pytest.raises(DimensionMismatch):
            Flag(v=v, u=u)
        with pytest.raises(DimensionMismatch):
            xl.rank((v, u))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(*[st.tuples(*[RATIONALS] * n)] * 2)
))
def test_independent_pair_agrees_with_rank(pair):
    # the pair is independent exactly when some 2x2 minor v_i u_j - v_j u_i is nonzero
    v, u = pair
    n = len(v)
    minor = any(v[i] * u[j] != v[j] * u[i] for i in range(n) for j in range(i + 1, n))
    assert (xl.rank([v, u]) == 2) == minor == (len(oracle_rref([v, u])[1]) == 2)
    if minor:
        assert Flag(v=v, u=u).v == v
    else:
        with pytest.raises(DegenerateFlag):
            Flag(v=v, u=u)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.tuples(*[RATIONALS] * n), RATIONALS)
))
def test_independent_pair_rejects_multiples(case):
    v, scale = case
    assert xl.rank([v, tuple(scale * x for x in v)]) <= 1
    with pytest.raises(DegenerateFlag):
        Flag(v=v, u=tuple(scale * x for x in v))


ENTRIES = st.one_of(st.integers(-6, 6), RATIONALS)


@st.composite
def systems(draw):
    """(ncols, rows): rational or int rows with zero, repeated and dependent
    rows mixed in, in a drawn order."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * n)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b, s, t = (draw(st.sampled_from(rows)), draw(st.sampled_from(rows)),
                          draw(ENTRIES), draw(ENTRIES))
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return n, draw(st.permutations(rows))


@given(systems())
def test_eliminations_equal_the_fraction_oracles(system):
    n, rows = system
    reduced, pivots = oracle_rref(rows)
    assert xl.rref(rows) == (reduced, pivots)
    assert xl.rank(rows) == len(pivots)
    basis = xl.nullspace(rows, n)
    assert basis == oracle_nullspace(rows, n)
    assert len(basis) == n - xl.rank(rows)
    assert all(dot(row, x) == 0 for row in rows for x in basis)


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n matrices, n in 1..5: P^T P + s I, positive definite for
    s > 0 and singular or indefinite for some s <= 0, or random symmetric
    entries; sometimes conjugated by a row swap, which moves a zero onto the
    diagonal."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        p = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=1, max_size=n))
        s = draw(st.integers(-2, 2))
        a = [[sum(r[i] * r[j] for r in p) + s * (i == j) for j in range(n)] for i in range(n)]
    else:
        upper = draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))
        a = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        a = [[a[perm[r]][perm[c]] for c in range(n)] for r in range(n)]
    return a


@given(symmetric_matrices())
def test_spd_inverse_equals_the_fraction_oracle(a):
    assert xl.spd_inverse(a) == oracle_spd_inverse(a)


def test_spd_inverse_does_not_exchange_rows():
    # the indefinite Gram of tests/golden/indefinite_metric.json: its first
    # minor is 0, and exchanging the first two rows would give pivots 1, 1, 1, 1
    a = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert xl.spd_inverse(a) is None and oracle_spd_inverse(a) is None
    assert xl.rank(a) == 4
    with pytest.raises(ValueError, match="positive definite"):
        MetricTensor(gram=a)


def rh(n):
    """[e_0, e_j] = e_j for j >= 1: the algebra of real hyperbolic space."""
    return LieAlgebra.from_brackets(
        n, tuple(f"e{i}" for i in range(n)), {(0, j): xl.basis_vector(n, j) for j in range(1, n)}
    )


@pytest.mark.parametrize("n", [8, 16])
def test_rh_derived_algebra_on_both_routes(n):
    algebra = rh(n)
    derived = algebra.derived_algebra()
    assert derived == oracle_derived_algebra(algebra)
    assert derived.basis == tuple(xl.basis_vector(n, j) for j in range(1, n))


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "str"])
def test_common_denominator_names_non_rational_values(bad):
    message = re.escape(f"refusing to coerce {type(bad).__name__} {bad!r} to an exact rational")
    with pytest.raises(TypeError, match=message):
        xl.common_denominator([Fraction(1, 3), bad, 2])
