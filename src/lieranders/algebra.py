"""Lie algebras given by exact structure constants, and their basic invariants.

A ``LieAlgebra`` stores c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k as
ints or Fractions: anything else, here, in ``from_brackets`` or in a
``Subspace``, is a TypeError from ``exactlinalg.common_denominator``.  It is
frozen, so its derived algebra and the integer numerators of its structure
constants (``exactlinalg.integer_rows``, the same nested rows c[i][j][k]
over one denominator) are computed once, on first use; ``bracket``,
``jacobi_check`` and ``hypercomplex``'s Nijenhuis tensor sum over them.  The
four-dimensional catalog (cases 1-4, plus the abelian case 0) is :func:`catalog`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlinalg as xl
from .errors import DimensionMismatch
from .exactlinalg import Vector

AlgebraVector = Vector

_ZERO = Fraction(0)

CATALOG_LABELS = ("X", "Y", "Z", "W")

# bracket tables for the four non-abelian cases, as {(i, j): coefficient vector}
_CATALOG_BRACKETS: dict[int, dict[tuple[int, int], tuple[int | Fraction, ...]]] = {
    0: {},
    # [Y,Z]=W, [Z,W]=Y, [W,Y]=Z, X central
    1: {
        (1, 2): (0, 0, 0, 1),
        (2, 3): (0, 1, 0, 0),
        (3, 1): (0, 0, 1, 0),
    },
    # [X,Z]=X, [Y,Z]=Y, [X,W]=Y, [Y,W]=-X
    2: {
        (0, 2): (1, 0, 0, 0),
        (1, 2): (0, 1, 0, 0),
        (0, 3): (0, 1, 0, 0),
        (1, 3): (-1, 0, 0, 0),
    },
    # [X,Y]=Y, [X,Z]=Z, [X,W]=W
    3: {
        (0, 1): (0, 1, 0, 0),
        (0, 2): (0, 0, 1, 0),
        (0, 3): (0, 0, 0, 1),
    },
    # [X,Y]=Y, [X,Z]=Z/2, [X,W]=W/2, [Z,W]=Y/2
    4: {
        (0, 1): (0, 1, 0, 0),
        (0, 2): (0, 0, Fraction(1, 2), 0),
        (0, 3): (0, 0, 0, Fraction(1, 2)),
        (2, 3): (0, Fraction(1, 2), 0, 0),
    },
}


@dataclass(frozen=True)
class Subspace:
    """Linear subspace in canonical form: rref basis, rows sorted by pivot."""

    ambient_dim: int
    basis: tuple[AlgebraVector, ...]

    def __post_init__(self):
        # kept as a tuple of tuples, so list-built twins compare equal and hash
        object.__setattr__(self, "basis", tuple(map(tuple, self.basis)))
        if any(len(v) != self.ambient_dim for v in self.basis):
            raise DimensionMismatch(f"basis vectors must have length {self.ambient_dim}")
        xl.common_denominator(x for v in self.basis for x in v)  # TypeError unless exact
        # in rref, checked without arithmetic: rows lead with 1s, alone in their
        # columns and in increasing columns (so no row is zero)
        leads = [next((j for j, x in enumerate(v) if x), None) for v in self.basis]
        if None in leads or leads != sorted(set(leads)) or any(
            v[j] != 1 or sum(1 for w in self.basis if w[j]) != 1 for v, j in zip(self.basis, leads)
        ):
            raise ValueError("basis must be in rref; use Subspace.span for any spanning set")

    @classmethod
    def span(cls, vectors, ambient_dim: int) -> "Subspace":
        rows = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise DimensionMismatch(f"spanning vectors must have length {ambient_dim}")
        return cls(ambient_dim=ambient_dim, basis=xl.rref(rows)[0])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim=ambient_dim, basis=())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: AlgebraVector) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in a subspace of R^{self.ambient_dim}"
            )
        return xl.rank(list(self.basis) + [v]) == self.dim

    def describe(self, labels) -> str:
        if not self.basis:
            return "{0}"
        return "span{" + ", ".join(format_combination(v, labels) for v in self.basis) + "}"


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional real Lie algebra with exact structure constants."""

    dim: int
    labels: tuple[str, ...]
    structure: tuple[tuple[AlgebraVector, ...], ...]

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "labels", tuple(self.labels))
        if n < 1:
            raise DimensionMismatch(f"a Lie algebra needs dimension >= 1; got {n}")
        if len(self.labels) != n:
            raise DimensionMismatch("need one label per basis vector")
        if len(self.structure) != n or any(
            len(ci) != n or any(len(cij) != n for cij in ci) for ci in self.structure
        ):
            raise DimensionMismatch("structure constants must be dim x dim x dim")
        # labels and structure kept as tuples, so the caller's lists stay the
        # caller's and a list-built algebra equals and hashes as its tuple twin
        object.__setattr__(self, "structure", tuple(tuple(map(tuple, ci)) for ci in self.structure))
        c, _ = self._structure_numerators  # TypeError unless every constant is an int or a Fraction
        for i in range(n):
            for j in range(n):
                if c[i][j] != tuple(-x for x in c[j][i]):
                    raise ValueError(f"structure constants not antisymmetric at ({i},{j})")

    @classmethod
    def from_brackets(cls, dim, labels, brackets) -> "LieAlgebra":
        """Build from a {(i, j): coefficient vector} table; missing pairs are zero."""
        c = [[list(xl.zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"bracket ({i},{j}) names an index outside 0..{dim - 1}")
            nums, d = xl.common_denominator(coeffs)
            v = tuple(Fraction(x, d) for x in nums)
            if len(v) != dim:
                raise DimensionMismatch(f"bracket ({i},{j}) has {len(v)} coefficients")
            if i == j and any(v):
                raise ValueError(f"[e_{i}, e_{i}] must vanish")
            for k in range(dim):
                c[i][j][k] = v[k]
                c[j][i][k] = -v[k]
        structure = tuple(tuple(tuple(cij) for cij in ci) for ci in c)
        return cls(dim=dim, labels=tuple(labels), structure=structure)

    def basis_vector(self, i: int) -> AlgebraVector:
        return xl.basis_vector(self.dim, i)

    def basis(self) -> tuple[AlgebraVector, ...]:
        return tuple(self.basis_vector(i) for i in range(self.dim))

    @cached_property
    def _structure_numerators(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
        # c[i][j][k] as integer numerators over one denominator, in the same
        # nested rows as ``structure``; read by the bracket and the exact tables
        return xl.integer_rows(self.structure, 3)

    @cached_property
    def _derived(self) -> Subspace:
        images = [
            self.structure[i][j]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        ]
        return Subspace.span(images, self.dim)

    def bracket(self, u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
        """Bilinear extension of the structure constants; exact on exact input.

        [u, v] = sum_ij u_i v_j c[i][j], summed by ``_bracket_numerators`` on
        the numerators of ``u`` and ``v``; one ``Fraction`` per coordinate.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("bracket operands must match the algebra dimension")
        (un, du), (vn, dv) = map(xl.common_denominator, (u, v))
        d = self._structure_numerators[1] * du * dv
        return tuple(Fraction(x, d) if x else _ZERO for x in self._bracket_numerators(un, vn))

    def _bracket_numerators(self, u, v) -> list[int]:
        """dc [u, v] for integer ``u`` and ``v``, over the structure numerators."""
        out = [0] * self.dim
        for a, ci in zip(u, self._structure_numerators[0]):
            if a:
                for b, cij in zip(v, ci):
                    if b:
                        for k, x in enumerate(cij):
                            out[k] += a * b * x
        return out

    def jacobi_check(self) -> list[tuple[int, int, int, AlgebraVector]]:
        """All basis triples violating the Jacobi identity, with their defects.

        Empty result means the structure constants define a Lie algebra.  The
        defect of (i, j, k) has the components
        sum_m (c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l), summed in
        Python ints over the structure numerators.
        """
        c, d = self._structure_numerators
        rn = range(self.dim)
        violations = []
        for i, j, k in itertools.combinations(rn, 3):
            total = [0] * self.dim
            for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                for x, cm in zip(c[a][b], c):
                    if x:
                        for l, y in enumerate(cm[e]):
                            total[l] += x * y
            if any(total):
                violations.append((i, j, k, tuple(Fraction(x, d * d) for x in total)))
        return violations

    def derived_algebra(self) -> Subspace:
        """[g, g]: span of all pairwise basis brackets, canonical form.

        Computed once per algebra; every call returns the same ``Subspace``.
        """
        return self._derived

    def describe_brackets(self) -> list[str]:
        """Nonzero basis brackets as human-readable equations."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                v = self.structure[i][j]
                if any(v):
                    out.append(
                        f"[{self.labels[i]},{self.labels[j]}] = "
                        f"{format_combination(v, self.labels)}"
                    )
        return out


def format_combination(v: AlgebraVector, labels) -> str:
    """Render a coefficient vector as a signed combination of basis labels."""
    terms = []
    for coeff, label in zip(v, labels):
        if coeff == 0:
            continue
        if coeff == 1:
            terms.append(("+", label))
        elif coeff == -1:
            terms.append(("-", label))
        else:
            terms.append(("+" if coeff > 0 else "-", f"{abs(coeff)}*{label}"))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, term in terms[1:]:
        text += f" {sign} {term}"
    return text


def catalog(case_id: int) -> LieAlgebra:
    """The four-dimensional catalog: 0 abelian, 1-4 the hypercomplex cases."""
    if case_id not in _CATALOG_BRACKETS:
        raise ValueError(f"unknown catalog case {case_id!r}; expected 0..4")
    return LieAlgebra.from_brackets(4, CATALOG_LABELS, _CATALOG_BRACKETS[case_id])
