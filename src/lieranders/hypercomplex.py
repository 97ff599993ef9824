"""Verification of hypercomplex and hyper-Hermitian axioms.

For left-invariant almost-complex structures the Nijenhuis tensor collapses to
structure-constant algebra, so every check here is exact: a triple or a J
with an entry other than an int or a Fraction is a TypeError
(``exactlinalg.common_denominator``), never a verdict in floats.  The module only
verifies candidate structures; it ships no catalog triples as ground truth.
Candidates can be produced by :func:`find_signed_permutation_triples`, a
search over signed permutation matrices that decides the integrability of
each of them once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra
from .errors import DimensionMismatch
from .exactlinalg import Matrix
from .riemann import MetricTensor


@dataclass(frozen=True)
class ComplexStructureTriple:
    """Candidate (J1, J2, J3); the quaternion axioms are checked by verify ops."""

    j1: Matrix
    j2: Matrix
    j3: Matrix

    def __post_init__(self):
        n = len(self.j1)
        for j in (self.j1, self.j2, self.j3):
            if len(j) != n or any(len(row) != n for row in j):
                raise DimensionMismatch("all three matrices must be square, same size")
        # TypeError unless every entry is an int or a Fraction
        xl.common_denominator(x for j in self.matrices() for row in j for x in row)

    @property
    def dim(self) -> int:
        return len(self.j1)

    def matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.j1, self.j2, self.j3)


def nijenhuis(
    algebra: LieAlgebra, j: Matrix, u: AlgebraVector, v: AlgebraVector
) -> AlgebraVector:
    """N(u,v) = [u,v] + J[Ju,v] + J[u,Jv] - [Ju,Jv], on left-invariant fields."""
    if len(j) != algebra.dim:
        raise DimensionMismatch("J must act on the algebra")
    ju = xl.mat_vec(j, u)
    jv = xl.mat_vec(j, v)
    out = algebra.bracket(u, v)
    out = xl.vec_add(out, xl.mat_vec(j, algebra.bracket(ju, v)))
    out = xl.vec_add(out, xl.mat_vec(j, algebra.bracket(u, jv)))
    return xl.vec_sub(out, algebra.bracket(ju, jv))


@dataclass
class ComplexStructureReport:
    square_ok: bool
    integrable: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.square_ok and self.integrable


def verify_complex_structure(algebra: LieAlgebra, j: Matrix) -> ComplexStructureReport:
    """Check J^2 = -I exactly and N(e_i, e_j) = 0 on all basis pairs."""
    xl.common_denominator(x for row in j for x in row)  # TypeError unless ints and Fractions
    n = algebra.dim
    violations = []
    square_ok = xl.mat_mul(j, j) == xl.mat_scale(-1, xl.identity_matrix(n))
    if not square_ok:
        violations.append("J^2 != -I")
    integrable = True
    for a, b in itertools.combinations(range(n), 2):
        nij = nijenhuis(algebra, j, algebra.basis_vector(a), algebra.basis_vector(b))
        if not xl.vec_is_zero(nij):
            integrable = False
            violations.append(
                f"N({algebra.labels[a]},{algebra.labels[b]}) = {xl.format_vector(nij)}"
            )
    return ComplexStructureReport(square_ok=square_ok, integrable=integrable, violations=violations)


@dataclass
class HypercomplexReport:
    quaternion_ok: bool
    squares_ok: tuple[bool, bool, bool]
    integrable: tuple[bool, bool, bool]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.quaternion_ok and all(self.squares_ok) and all(self.integrable)


def verify_hypercomplex(algebra: LieAlgebra, triple: ComplexStructureTriple) -> HypercomplexReport:
    """Check J1 J2 = J3 = -J2 J1, each J^2 = -I, and each Nijenhuis tensor zero."""
    violations = []
    j1, j2, j3 = triple.matrices()
    prod12 = xl.mat_mul(j1, j2)
    prod21 = xl.mat_mul(j2, j1)
    quaternion_ok = prod12 == j3 and prod21 == xl.mat_scale(-1, j3)
    if not quaternion_ok:
        violations.append("J1 J2 = J3 = -J2 J1 fails")
    reports = [verify_complex_structure(algebra, j) for j in triple.matrices()]
    for idx, rep in enumerate(reports, start=1):
        for v in rep.violations:
            violations.append(f"J{idx}: {v}")
    return HypercomplexReport(
        quaternion_ok=quaternion_ok,
        squares_ok=tuple(r.square_ok for r in reports),
        integrable=tuple(r.integrable for r in reports),
        violations=violations,
    )


@dataclass
class HermitianReport:
    isometry_ok: tuple[bool, bool, bool]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.isometry_ok)


def verify_hyper_hermitian(metric: MetricTensor, triple: ComplexStructureTriple) -> HermitianReport:
    """Check g(J u, J v) = g(u, v) exactly for each J on all basis pairs."""
    n = metric.dim
    flags = []
    violations = []
    for idx, j in enumerate(triple.matrices(), start=1):
        # J^T G J = G is the basis-free statement of the isometry condition
        ok = xl.mat_mul(xl.transpose(j), xl.mat_mul(metric.gram, j)) == metric.gram
        flags.append(ok)
        if not ok:
            violations.append(f"J{idx} is not a g-isometry")
    return HermitianReport(isometry_ok=tuple(flags), violations=violations)


def signed_permutation_complex_candidates(dim: int) -> list[Matrix]:
    """All signed permutation matrices J with J^2 = -I.

    Such a J pairs the basis into 2-cycles i -> j -> i with opposite signs, so
    the search space is tiny (12 matrices in dimension 4).
    """
    if dim % 2:
        return []
    out = []
    indices = list(range(dim))

    def pairings(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for k in range(1, len(rest)):
            for sub in pairings(rest[1:k] + rest[k + 1 :]):
                yield [(first, rest[k])] + sub

    for pairing in pairings(indices):
        for signs in itertools.product((1, -1), repeat=len(pairing)):
            m = [[Fraction(0)] * dim for _ in range(dim)]
            for (a, b), s in zip(pairing, signs):
                m[b][a] = Fraction(s)   # e_a -> s e_b
                m[a][b] = Fraction(-s)  # e_b -> -s e_a
            out.append(tuple(tuple(row) for row in m))
    return out


def find_signed_permutation_triples(
    algebra: LieAlgebra, metric: MetricTensor | None = None
) -> list[ComplexStructureTriple]:
    """Hypercomplex triples among signed permutations.

    Returns every (J1, J2, J1 J2) passing all hypercomplex axioms on the given
    algebra and, when a metric is supplied, the hyper-Hermitian condition too.
    Each candidate's integrability is decided once; an anticommuting pair of
    integrable candidates then gives a triple when J3 = J1 J2, itself a
    candidate since J3^2 = -I, is integrable as well.
    """
    integrable = [
        j
        for j in signed_permutation_complex_candidates(algebra.dim)
        if verify_complex_structure(algebra, j).integrable
    ]
    found = []
    for j1, j2 in itertools.permutations(integrable, 2):
        j3 = xl.mat_mul(j1, j2)
        if j3 != xl.mat_scale(-1, xl.mat_mul(j2, j1)) or j3 not in integrable:
            continue
        triple = ComplexStructureTriple(j1=j1, j2=j2, j3=j3)
        if metric is not None and not verify_hyper_hermitian(metric, triple).ok:
            continue
        found.append(triple)
    return found
