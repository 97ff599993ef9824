"""Douglas/Berwald classification of left-invariant Randers metrics.

Two exact linear criteria drive everything:

* Douglas type: Q is g-orthogonal to the derived algebra [g, g].
* Berwald type: Q is parallel, nabla_{e_i} Q = 0 for every basis direction.

Both are decided exactly, as integer sums over the tables the metric keeps
for the algebra (the lowered [g, g] basis and the Koszul numerators, built
once per pair), so verdicts carry no tolerances and each test is one
contraction with Q's numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra, Subspace, catalog, format_combination
from .errors import DimensionMismatch, NotDouglas
from .randers import RandersStructure
from .riemann import (
    MetricTensor,
    _connection_numerators,
    identity_metric,
    levi_civita,
    orthogonal_complement,
)


class RandersClass(Enum):
    NOT_DOUGLAS = "NotDouglas"
    BERWALD_DOUGLAS = "BerwaldDouglas"
    NON_BERWALD_DOUGLAS = "NonBerwaldDouglas"


@dataclass
class Classification:
    kind: RandersClass
    evidence: list[str]


def is_douglas(
    algebra: LieAlgebra, metric: MetricTensor, q: AlgebraVector
) -> tuple[bool, list[str]]:
    """Exact orthogonality test of q against every derived-algebra basis vector.

    The lowered basis G b of [g, g] is kept with the metric
    (``MetricTensor._tables``), so each g(Q, b) is one integer dot with q's
    numerators; ``Fraction``s are built only for the evidence.
    """
    if len(q) != metric.dim or algebra.dim != metric.dim:
        raise DimensionMismatch("inner product operands must match the metric")
    rows, d = metric._tables(algebra).derived_lowered
    qn, dq = xl.common_denominator(q)
    evidence = []
    for b, row in zip(algebra.derived_algebra().basis, rows):
        dot = sum(x * y for x, y in zip(qn, row))
        if dot:
            evidence.append(
                f"g(Q, {format_combination(b, algebra.labels)}) = {Fraction(dot, dq * d)}"
            )
    return (not evidence, evidence)


def require_douglas(r: RandersStructure) -> None:
    """Raise NotDouglas, carrying the exact evidence, unless r is of Douglas type."""
    ok, evidence = is_douglas(r.algebra, r.metric, r.q_field)
    if not ok:
        raise NotDouglas("; ".join(evidence))


def douglas_subspace(algebra: LieAlgebra, metric: MetricTensor) -> Subspace:
    """Directions of Q giving a Douglas metric: the g-complement of [g, g]."""
    return orthogonal_complement(metric, algebra.derived_algebra())


def is_berwald(
    algebra: LieAlgebra, metric: MetricTensor, q: AlgebraVector
) -> tuple[bool, list[str]]:
    """Exact parallelism test: nabla_{e_i} q = 0 for all i.

    nabla_{e_i} q = sum_j q_j gamma_ij^k e_k is contracted in Python ints,
    from q's numerators and the integer Koszul table kept with the metric,
    the one ``levi_civita`` builds its ``Fraction``s from; ``Fraction``s are
    built only for the evidence vectors.
    """
    n = algebra.dim
    gamma, d = _connection_numerators(algebra, metric)
    qn, dq = xl.common_denominator(q)
    d *= dq
    evidence = []
    for i in range(n):
        deriv = [0] * n
        for j, x in enumerate(qn):
            if x:
                row = (i * n + j) * n
                for k in range(n):
                    deriv[k] += x * gamma[row + k]
        if any(deriv):
            vec = tuple(Fraction(x, d) for x in deriv)
            evidence.append(
                f"nabla_{algebra.labels[i]} Q = {format_combination(vec, algebra.labels)}"
            )
    return (not evidence, evidence)


def classify_randers(r: RandersStructure) -> Classification:
    """NotDouglas / BerwaldDouglas / NonBerwaldDouglas with exact evidence.

    Q = 0 comes out BerwaldDouglas: the metric is Riemannian and both linear
    criteria hold trivially.
    """
    douglas, evidence = is_douglas(r.algebra, r.metric, r.q_field)
    if not douglas:
        return Classification(kind=RandersClass.NOT_DOUGLAS, evidence=evidence)
    berwald, evidence = is_berwald(r.algebra, r.metric, r.q_field)
    if berwald:
        return Classification(kind=RandersClass.BERWALD_DOUGLAS, evidence=[])
    return Classification(kind=RandersClass.NON_BERWALD_DOUGLAS, evidence=evidence)


def berwald_subset(
    algebra: LieAlgebra, metric: MetricTensor, within: Subspace
) -> Subspace:
    """Solution set of nabla Q = 0 restricted to a subspace, canonical form.

    Solves the exact linear system in the coordinates of ``within``'s basis
    and maps the nullspace back to algebra vectors.
    """
    if not within.basis:
        return Subspace.zero(algebra.dim)
    conn = levi_civita(algebra, metric)
    rows = []
    for i in range(algebra.dim):
        derivs = [conn.nabla(algebra.basis_vector(i), b) for b in within.basis]
        for k in range(algebra.dim):
            rows.append(tuple(d[k] for d in derivs))
    coeff_basis = xl.nullspace(tuple(rows))
    vectors = []
    for coeffs in coeff_basis:
        v = xl.zero_vector(algebra.dim)
        for c, b in zip(coeffs, within.basis):
            v = xl.vec_add(v, xl.vec_scale(c, b))
        vectors.append(v)
    return Subspace.span(vectors, algebra.dim)


@dataclass
class CaseReport:
    case_id: int
    douglas: Subspace
    berwald: Subspace


def reproduce_theorem(metric: MetricTensor | None = None) -> list[CaseReport]:
    """Douglas subspace and its Berwald subset for catalog cases 1-4."""
    reports = []
    for case_id in (1, 2, 3, 4):
        algebra = catalog(case_id)
        m = metric if metric is not None else identity_metric(algebra.dim)
        douglas = douglas_subspace(algebra, m)
        berwald = berwald_subset(algebra, m, douglas)
        reports.append(CaseReport(case_id=case_id, douglas=douglas, berwald=berwald))
    return reports


def expected_theorem_reports() -> list[CaseReport]:
    """Reference classification tables that `reproduce_theorem` must match.

    Case 1: Douglas = Berwald = span{X};
    case 2: Douglas = span{Z,W}, Berwald = span{W} (the p = 0 line);
    cases 3, 4: Douglas = span{X}, Berwald = {0}.
    """
    one = Fraction(1)
    x = (one, Fraction(0), Fraction(0), Fraction(0))
    z = (Fraction(0), Fraction(0), one, Fraction(0))
    w = (Fraction(0), Fraction(0), Fraction(0), one)
    return [
        CaseReport(1, Subspace.span([x], 4), Subspace.span([x], 4)),
        CaseReport(2, Subspace.span([z, w], 4), Subspace.span([w], 4)),
        CaseReport(3, Subspace.span([x], 4), Subspace.zero(4)),
        CaseReport(4, Subspace.span([x], 4), Subspace.zero(4)),
    ]
