"""Verification of hypercomplex and hyper-Hermitian axioms.

For left-invariant almost-complex structures the Nijenhuis tensor collapses to
structure-constant algebra, so every check here is exact: it runs in ints on
the numerators of J (``exactlinalg.integer_rows``, a TypeError for an entry
other than an int or a Fraction), of the Gram matrix and of the structure
constants, and builds Fractions only for a violation's text.  The module only
verifies the triple it is given, as a definition file's ``hypercomplex``
field; it neither ships catalog triples as ground truth nor searches for one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactlinalg as xl
from .algebra import LieAlgebra
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

    def matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.j1, self.j2, self.j3)


def _scaled_equal(ca: int, a, cb: int, b) -> bool:
    """ca a == cb b, entry by entry, for integer matrices of one shape."""
    return all(ca * x == cb * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@dataclass
class ComplexStructureReport:
    square_ok: bool
    integrable: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.square_ok and self.integrable


def verify_complex_structure(algebra: LieAlgebra, j: Matrix) -> ComplexStructureReport:
    """Check J^2 = -I and N(u,v) = [u,v] + J[Ju,v] + J[u,Jv] - [Ju,Jv] = 0 on
    basis pairs.  With J = Jn/d, c = cn/dc and bn = dc [., .] in ints,
    J^2 = -I is Jn Jn = -d^2 I and d^2 dc N(e_a, e_b) is
    d^2 cn[a][b] + Jn(bn(Jn e_a, e_b) + bn(e_a, Jn e_b)) - bn(Jn e_a, Jn e_b)."""
    jn, d = xl.integer_rows(j, 2)  # TypeError unless ints and Fractions
    n = algebra.dim
    if len(jn) != n or any(len(row) != n for row in jn):
        raise DimensionMismatch(f"J must be {n} x {n} to act on the algebra")
    eye = tuple(tuple(int(i == k) for k in range(n)) for i in range(n))
    violations = []
    square_ok = _scaled_equal(1, xl.mat_mul(jn, jn), -d * d, eye)
    if not square_ok:
        violations.append("J^2 != -I")
    (c, dc), bn = algebra._structure_numerators, algebra._bracket_numerators
    cols = xl.transpose(jn)  # cols[a] = Jn e_a
    pairs = list(itertools.combinations(range(n), 2))
    inner = [[x + y for x, y in zip(bn(cols[a], eye[b]), bn(eye[a], cols[b]))] for a, b in pairs]
    integrable = True
    for (a, b), jinner in zip(pairs, xl.mat_mul(inner, cols)):  # rows Jn(...)
        defect = [d * d * x + y - z for x, y, z in zip(c[a][b], jinner, bn(cols[a], cols[b]))]
        if any(defect):
            integrable = False
            text = ", ".join(str(Fraction(x, d * d * dc)) for x in defect)
            violations.append(f"N({algebra.labels[a]},{algebra.labels[b]}) = ({text})")
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
    """Check J1 J2 = J3 = -J2 J1, each J^2 = -I, and each Nijenhuis tensor
    zero; on Ji = Jni/di, d3 Jn1 Jn2 = d1 d2 Jn3 = -d3 Jn2 Jn1."""
    violations = []
    (j1, d1), (j2, d2), (j3, d3) = (xl.integer_rows(j, 2) for j in triple.matrices())
    p12, p21 = xl.mat_mul(j1, j2), xl.mat_mul(j2, j1)
    quaternion_ok = _scaled_equal(d3, p12, d1 * d2, j3) and _scaled_equal(d3, p21, -d1 * d2, j3)
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
    gn, _ = metric._gram_numerators
    flags = []
    violations = []
    for idx, j in enumerate(triple.matrices(), start=1):
        # J^T G J = G, the basis-free isometry condition, is Jn^T Gn Jn = d^2 Gn
        jn, d = xl.integer_rows(j, 2)
        ok = _scaled_equal(1, xl.mat_mul(xl.transpose(jn), xl.mat_mul(gn, jn)), d * d, gn)
        flags.append(ok)
        if not ok:
            violations.append(f"J{idx} is not a g-isometry")
    return HermitianReport(isometry_ok=tuple(flags), violations=violations)
