"""Douglas/Berwald classification of left-invariant Randers metrics.

Two exact linear criteria drive everything:

* Douglas type: Q is g-orthogonal to the derived algebra [g, g].
* Berwald type: Q is parallel, nabla_{e_i} Q = 0 for every basis direction.

Both, and the subspaces they cut out, read only the tables the metric keeps
for the algebra: the lowered [g, g] rows (one integer dot per row with Q,
or their nullspace) and the Koszul numerators (one contraction, ``_nabla``,
per vector), so verdicts and subspaces carry no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra, Subspace, catalog, format_combination
from .errors import DimensionMismatch, NotDouglas
from .randers import RandersStructure
from .riemann import MetricTensor, identity_metric


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
    rows, d = metric._tables(algebra).derived_lowered
    if len(q) != metric.dim:
        raise DimensionMismatch("inner product operands must match the metric")
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
    """Directions of Q giving a Douglas metric: the g-complement of [g, g].

    The nullspace of the lowered [g, g] rows G b that ``is_douglas`` dots Q
    with, in canonical form; one zero row stands for [g, g] = {0}, whose
    complement is the whole space.
    """
    rows, _ = metric._tables(algebra).derived_lowered
    # rref divides by its pivots, so the integer rows enter as Fractions
    rows = tuple(tuple(map(Fraction, row)) for row in rows) or ((Fraction(0),) * algebra.dim,)
    return Subspace(algebra.dim, xl.nullspace(rows))


def _nabla(
    algebra: LieAlgebra, metric: MetricTensor, vectors: tuple[AlgebraVector, ...]
) -> tuple[list[list[list[int]]], int]:
    """nabla_{e_i} v = sum_j v_j gamma_ij^k e_k for each v of ``vectors``, as
    out[v][i][k] over one denominator: Python ints from the vectors'
    numerators and the integer Koszul table kept with the metric."""
    n, rn = algebra.dim, range(algebra.dim)
    gamma, d = metric._tables(algebra).connection
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch(f"vectors must have the algebra dimension {n}")
    nums, dv = xl.common_denominator(x for v in vectors for x in v)
    out = []
    for s in range(0, len(nums), n):
        v = [(j, x) for j, x in enumerate(nums[s : s + n]) if x]
        derivs = [[0] * n for _ in rn]
        for i, deriv in enumerate(derivs):
            for j, x in v:
                row = (i * n + j) * n
                for k in rn:
                    deriv[k] += x * gamma[row + k]
        out.append(derivs)
    return out, d * dv


def is_berwald(
    algebra: LieAlgebra, metric: MetricTensor, q: AlgebraVector
) -> tuple[bool, list[str]]:
    """Exact parallelism test: nabla_{e_i} q = 0 for all i.

    One ``_nabla`` contraction on q's numerators; ``Fraction``s are built
    only for the evidence vectors.
    """
    (derivs,), d = _nabla(algebra, metric, (q,))
    evidence = [
        f"nabla_{label} Q = "
        f"{format_combination(tuple(Fraction(x, d) for x in deriv), algebra.labels)}"
        for label, deriv in zip(algebra.labels, derivs)
        if any(deriv)
    ]
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

    ``_nabla`` of the basis of ``within`` gives the columns of the exact
    system in that basis; its nullspace is mapped back to algebra vectors.
    """
    n = algebra.dim
    if within.ambient_dim != n:
        raise DimensionMismatch(f"subspace of R^{within.ambient_dim}, algebra of dimension {n}")
    if not within.basis:
        return Subspace.zero(n)
    derivs, _ = _nabla(algebra, metric, within.basis)
    # rref divides by its pivots, so the integer rows enter as Fractions
    rows = tuple(
        tuple(Fraction(deriv[i][k]) for deriv in derivs) for i in range(n) for k in range(n)
    )
    vectors = [
        tuple(sum(c * b[k] for c, b in zip(coeffs, within.basis)) for k in range(n))
        for coeffs in xl.nullspace(rows)
    ]
    return Subspace.span(vectors, n)


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
