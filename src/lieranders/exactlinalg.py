"""Exact rational linear algebra on small dense matrices.

Everything here works on tuples of ``fractions.Fraction``, so results are
exact whenever inputs are.  Matrices are tuples of row tuples.  Sizes are
tiny (typically 4x4), so plain Gauss-Jordan elimination is all we need.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch

Scalar = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def as_fraction(x: Scalar) -> Fraction:
    """Coerce to Fraction, rejecting floats to protect exactness."""
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    return Fraction(x)


def vec(values: Iterable[Scalar]) -> Vector:
    return tuple(as_fraction(v) for v in values)


def mat(rows: Iterable[Iterable[Scalar]]) -> Matrix:
    m = tuple(vec(row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity_matrix(n: int) -> Matrix:
    return tuple(basis_vector(n, i) for i in range(n))


def common_denominator(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator.

    Returns ``(nums, d)`` with ``values[i] == nums[i] / d`` for the least
    positive such ``d``; no values give ``([], 1)``.  Accepts ints and
    Fractions.
    """
    values = list(values)
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vector) -> bool:
    return not any(u)


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(vec_scale(c, row) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def rref(rows: Sequence[Vector]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Zero rows are dropped, pivots are 1, and rows come out sorted by pivot
    column, so the result is a canonical representative of the row space.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    reduced = tuple(tuple(row) for row in work[:r])
    return reduced, tuple(pivots)


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[0])


def nullspace(m: Sequence[Vector]) -> Matrix:
    """Canonical (rref) basis of {x : m x = 0}."""
    if not m:
        return ()
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        x = [Fraction(0)] * ncols
        x[j] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            x[pcol] = -row[j]
        basis.append(tuple(x))
    return rref(basis)[0]


def solve(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b for square invertible a."""
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch("solve: shape mismatch")
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    reduced, pivots = rref(tuple(tuple(r) for r in aug))
    if len(pivots) != n or pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n] for row in reduced)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(basis_vector(n, i)) for i, row in enumerate(a)]
    reduced, pivots = rref(tuple(tuple(r) for r in aug))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(a)
    work = [list(row) for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            result = -result
        result *= work[col][col]
        inv = 1 / work[col][col]
        for i in range(col + 1, n):
            if work[i][col] != 0:
                factor = work[i][col] * inv
                work[i] = [x - factor * y for x, y in zip(work[i], work[col])]
    return result


def leading_principal_minors(a: Matrix) -> tuple[Fraction, ...]:
    n = len(a)
    return tuple(det(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(n))


def format_scalar(x: Fraction) -> str:
    """Rational as 'p/q', or plain integer when the denominator is 1."""
    return str(x)


def format_vector(v: Vector) -> str:
    return "(" + ", ".join(format_scalar(x) for x in v) + ")"
