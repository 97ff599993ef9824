"""Hypercomplex and hyper-Hermitian verification.

The library checks J on the integer numerators of J and of the structure
constants; ``exact_oracles.oracle_nijenhuis`` and ``oracle_complex_report``
compute the same verdicts and violation text in ``Fraction`` matrices, and
``oracle_find_signed_permutation_triples`` searches triples with them.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieranders import (
    ComplexStructureTriple,
    LieAlgebra,
    catalog,
    identity_metric,
    verify_complex_structure,
    verify_hyper_hermitian,
    verify_hypercomplex,
)
from lieranders import exactlinalg as xl
from lieranders.errors import DimensionMismatch

from conftest import QUATERNION_TRIPLE, dense_metric, fr
from exact_oracles import (
    mat_scale,
    oracle_complex_report,
    oracle_find_signed_permutation_triples,
    oracle_nijenhuis,
    signed_permutation_complex_candidates,
)

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
VECTORS = st.lists(RATIONALS, min_size=4, max_size=4).map(tuple)

X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))


def pairing_j(*pairs):
    """Signed permutation with e_a -> s e_b and e_b -> -s e_a per (a, b, s)."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for a, b, s in pairs:
        m[b][a] = Fraction(s)
        m[a][b] = Fraction(-s)
    return tuple(tuple(row) for row in m)


# standard quaternion action on (1, i, j, k) coordinates
QUAT_J1, QUAT_J2, QUAT_J3 = QUATERNION_TRIPLE.matrices()


@functools.cache
def identity_triples(case_id):
    """The oracle's hyper-Hermitian triples for the identity metric."""
    return oracle_find_signed_permutation_triples(catalog(case_id), identity_metric(4))


def test_nijenhuis_abelian_vanishes():
    a = catalog(0)
    assert oracle_nijenhuis(a, QUAT_J1, fr(1, 2, 3, 4), fr(-1, 0, 2, 5)) == fr(0, 0, 0, 0)


def test_nijenhuis_case3_integrable_candidate():
    # J: X->Y, Y->-X, Z->W, W->-Z kills the tensor on (X, Z)
    a = catalog(3)
    j = pairing_j((0, 1, 1), (2, 3, 1))
    assert oracle_nijenhuis(a, j, X, Z) == fr(0, 0, 0, 0)
    assert verify_complex_structure(a, j).ok


def test_nijenhuis_nonzero_case2():
    # pairing (X,W)(Y,Z) on case 2 is genuinely non-integrable:
    # N(X,Y) = J[W,Y] + J[X,Z] = JX + JX = 2W
    a = catalog(2)
    j = pairing_j((0, 3, 1), (1, 2, 1))
    assert oracle_nijenhuis(a, j, X, Y) == fr(0, 0, 0, 2)
    report = verify_complex_structure(a, j)
    assert report.square_ok and not report.integrable
    assert any("N(" in v for v in report.violations)


@given(u=VECTORS, v=VECTORS)
def test_nijenhuis_antisymmetry(u, v):
    a = catalog(4)
    lhs = oracle_nijenhuis(a, QUAT_J2, u, v)
    rhs = xl.vec_scale(-1, oracle_nijenhuis(a, QUAT_J2, v, u))
    assert lhs == rhs


CONSTANTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def algebra_and_j(draw):
    """Antisymmetric structure constants in dimension 2-6 (Jacobi is not
    needed here) and a rational J: random entries, or in even dimension a
    signed permutation candidate conjugated by a random invertible P, so that
    J^2 = -I holds with fractional entries."""
    n = draw(st.integers(2, 6))
    brackets = {
        (i, j): tuple(draw(CONSTANTS) for _ in range(n))
        for i in range(n) for j in range(i + 1, n)
    }
    algebra = LieAlgebra.from_brackets(n, [f"e{i}" for i in range(n)], brackets)

    def square():
        return tuple(tuple(draw(SMALL) for _ in range(n)) for _ in range(n))

    if n % 2 or draw(st.booleans()):
        return algebra, square()
    j0 = draw(st.sampled_from(signed_permutation_complex_candidates(n)))
    p = square()
    eye = xl.identity_matrix(n)
    reduced, pivots = xl.rref([row + e for row, e in zip(p, eye)])
    assume(pivots[:n] == tuple(range(n)))  # P is invertible
    p_inv = tuple(row[n:] for row in reduced)
    return algebra, xl.mat_mul(xl.mat_mul(p, j0), p_inv)


@settings(max_examples=150, deadline=None)
@given(case=algebra_and_j())
def test_complex_structure_equals_fraction_oracle(case):
    algebra, j = case
    report = verify_complex_structure(algebra, j)
    assert (report.square_ok, report.integrable, report.violations) == oracle_complex_report(
        algebra, j
    )


def test_shape_mismatches_raise():
    j3x3 = tuple(tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3))
    ragged = tuple(row[:3] for row in QUAT_J1)
    for j in (j3x3, ragged):
        with pytest.raises(DimensionMismatch):
            verify_complex_structure(catalog(2), j)
    small = ComplexStructureTriple(j1=j3x3, j2=j3x3, j3=j3x3)
    with pytest.raises(DimensionMismatch):
        verify_hyper_hermitian(identity_metric(4), small)
    with pytest.raises(DimensionMismatch):
        verify_hypercomplex(catalog(0), small)


def test_verify_complex_structure_zero_row_fails():
    a = catalog(0)
    j = tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4))
    report = verify_complex_structure(a, j)
    assert not report.square_ok


def test_verify_hypercomplex_quaternions_on_abelian(metric4):
    a = catalog(0)
    triple = ComplexStructureTriple(j1=QUAT_J1, j2=QUAT_J2, j3=QUAT_J3)
    report = verify_hypercomplex(a, triple)
    assert report.ok
    assert verify_hyper_hermitian(metric4, triple).ok


def test_verify_hypercomplex_sign_flip_fails():
    a = catalog(0)
    triple = ComplexStructureTriple(
        j1=QUAT_J1, j2=QUAT_J2, j3=mat_scale(-1, QUAT_J3)
    )
    report = verify_hypercomplex(a, triple)
    assert not report.quaternion_ok
    assert not report.ok
    assert any("J1 J2" in v for v in report.violations)


def test_hyper_hermitian_scaled_j_fails(metric4):
    triple = ComplexStructureTriple(
        j1=mat_scale(2, QUAT_J1), j2=QUAT_J2, j3=QUAT_J3
    )
    report = verify_hyper_hermitian(metric4, triple)
    assert not report.isometry_ok[0]
    assert report.isometry_ok[1]


def test_hyper_hermitian_signed_permutation_passes(metric4):
    j = pairing_j((0, 1, 1), (2, 3, 1))
    triple = ComplexStructureTriple(j1=j, j2=j, j3=j)  # hermitian check only
    assert verify_hyper_hermitian(metric4, triple).ok


def test_hyper_hermitian_implies_invertible(metric4):
    # isometries of a definite form are invertible
    for triple in identity_triples(0)[:3]:
        assert verify_hyper_hermitian(metric4, triple).ok
        for j in triple.matrices():
            assert xl.rank(j) == 4


def test_candidate_enumeration():
    candidates = signed_permutation_complex_candidates(4)
    assert len(candidates) == 12
    # ints 0 and +-1, equal and hash-equal to the same Fraction matrices
    assert {type(x) for j in candidates for row in j for x in row} == {int}
    as_fractions = [tuple(tuple(Fraction(x) for x in row) for row in j) for j in candidates]
    assert as_fractions == candidates and set(as_fractions) == set(candidates)
    minus_eye = mat_scale(-1, xl.identity_matrix(4))
    for j in candidates:
        assert xl.mat_mul(j, j) == minus_eye
    assert signed_permutation_complex_candidates(3) == []


@pytest.mark.parametrize("case_id", [0, 3])
def test_search_finds_triples(case_id):
    triples = identity_triples(case_id)
    assert triples
    for triple in triples[:4]:
        report = verify_hypercomplex(catalog(case_id), triple)
        assert report.ok
        # derivable quaternion relations hold as a redundancy check
        assert xl.mat_mul(triple.j2, triple.j3) == triple.j1
        assert xl.mat_mul(triple.j3, triple.j1) == triple.j2


@pytest.mark.parametrize("case_id", range(5))
def test_search_equals_brute_force_oracle(case_id, metric4):
    # the library's verify ops, run over every ordered pair of candidates,
    # accept exactly the oracle's triples: with no metric, the identity, and
    # a dense metric no triple is hyper-Hermitian for
    algebra = catalog(case_id)
    pairs = itertools.permutations(signed_permutation_complex_candidates(4), 2)
    triples = [ComplexStructureTriple(j1=a, j2=b, j3=xl.mat_mul(a, b)) for a, b in pairs]
    found = [t for t in triples if verify_hypercomplex(algebra, t).ok]
    assert found == oracle_find_signed_permutation_triples(algebra)
    for metric in (metric4, dense_metric(4)):
        assert [
            t for t in found if verify_hyper_hermitian(metric, t).ok
        ] == oracle_find_signed_permutation_triples(algebra, metric)


def test_search_respects_nijenhuis_obstruction():
    # case 2 rejects the non-integrable pairings, so it finds fewer triples
    assert 0 < len(identity_triples(2)) < len(identity_triples(0))


def test_triple_shape_validation():
    with pytest.raises(Exception):
        ComplexStructureTriple(
            j1=QUAT_J1, j2=QUAT_J2, j3=tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        )
