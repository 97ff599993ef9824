"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of row tuples.  ``common_denominator`` is the one
exactness gate: every exact constructor and elimination passes its input
through it, and anything but an int or a ``fractions.Fraction`` (a float, a
string, a ``Decimal``) raises TypeError.  ``integer_rows`` gates a nested
table and keeps its numerators in the table's rows; the eliminations run on
them in Fractions, so results are exact, and ``mat_mul`` multiplies integer
rows and Fraction rows alike.  Sizes are tiny (typically 4x4), so
Gauss-Jordan elimination is all we need, and one elimination
(``spd_inverse``) both decides positive definiteness and gives the inverse.
"""

from __future__ import annotations

import itertools
import math
import re
import reprlib
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import DefinitionError, DimensionMismatch

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_ZERO = Fraction(0)

# Largest decimal exponent, and longest run of digits, a parsed rational may
# carry: Python's default limit on int <-> str digits.  Fraction("1e-9999999")
# builds 10**9999999 first, which takes seconds, and could not be printed
# anyway; Fraction("0.000...1") builds 10**(digits) before int() refuses them.
MAX_EXPONENT = 4300
# a run of digits as Fraction() reads it: underscores only between digits
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def parse_rational(token: str, where: str) -> Fraction:
    """``Fraction(token)``: "p/q", an integer or a decimal.  Anything else, a
    decimal exponent beyond ``MAX_EXPONENT`` in magnitude, or a run of more
    than ``MAX_EXPONENT`` digits, is a DefinitionError that names ``where``
    and quotes a token of more than 30 characters by a bounded excerpt."""
    quoted = repr(token) if len(token) <= 30 else reprlib.repr(token)
    _, e, exponent = token.lower().rpartition("e")
    try:
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise DefinitionError(
                f"{where}: bad rational {quoted} (exponent above {MAX_EXPONENT} in magnitude)"
            )
        if any(len(run) - run.count("_") > MAX_EXPONENT for run in _DIGIT_RUN.findall(token)):
            raise DefinitionError(
                f"{where}: bad rational {quoted} (a run of more than {MAX_EXPONENT} digits)"
            )
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise DefinitionError(f"{where}: bad rational {quoted}") from None


def _refuse(x) -> TypeError:
    return TypeError(f"refusing to coerce {type(x).__name__} {x!r} to an exact rational")


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
    Fractions; anything else (a float, a string) raises TypeError.
    """
    values = list(values)
    try:
        dens = [x.denominator for x in values]
    except AttributeError:
        bad = next(x for x in values if not hasattr(x, "denominator"))
        raise _refuse(bad) from None
    d = math.lcm(*dens)
    if d == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (d // q) for x, q in zip(values, dens)], d


def integer_rows(table: Sequence, depth: int) -> tuple[tuple, int]:
    """``common_denominator`` of a table ``depth`` levels deep: ``(rows, d)``,
    its numerators over the least common denominator ``d`` nested as tuples
    exactly as ``table`` is (c[i][j][k] at depth 3, g[i][j] at depth 2)."""
    levels = [table]
    for _ in range(depth - 1):
        levels.append([x for row in levels[-1] for x in row])
    rows, d = common_denominator(levels.pop())
    for level in reversed(levels):  # regroup innermost first, row by row
        it = iter(rows)
        rows = [tuple(itertools.islice(it, len(row))) for row in level]
    return tuple(rows), d


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
    """``a b`` in the entries' own type: integer rows give integer rows."""
    if any(len(row) != len(b) for row in a) or len({len(row) for row in b}) > 1:
        raise DimensionMismatch(f"mat_mul needs left rows of length {len(b)}, right rows alike")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form, in Fractions; returns (rows, pivot columns).

    Zero rows are dropped, pivots are 1, and rows come out sorted by pivot
    column, so the result is a canonical representative of the row space.
    Rows of different lengths raise DimensionMismatch.  Eliminates on the
    integer rows, d times ``rows``, which span the same space.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch(f"rows must share one length; got {sorted({len(r) for r in rows})}")
    work = [[Fraction(x) if x else _ZERO for x in r] for r in integer_rows(rows, 2)[0]]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv if x else x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    reduced = tuple(tuple(row) for row in work[:r])
    return reduced, tuple(pivots)


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[0])


def _independent_pair(v: Vector, u: Vector) -> bool:
    """Whether v and u are linearly independent, decided exactly.

    They are when some 2x2 minor v_i u_j - v_j u_i is nonzero, tested on the
    integer numerators of each vector (scaling a vector does not change
    which minors vanish).  False in dimension 1 and when either vector is
    zero; no ``Fraction`` rref.
    """
    if len(v) != len(u):
        raise DimensionMismatch(f"pair of lengths {len(v)} and {len(u)}")
    (vn, _), (un, _) = common_denominator(v), common_denominator(u)
    n = len(vn)
    return any(vn[i] * un[j] != vn[j] * un[i] for i in range(n) for j in range(i + 1, n))


def nullspace(m: Sequence[Sequence[int | Fraction]], ncols: int) -> Matrix:
    """Canonical (rref) basis of {x in Q^ncols : m x = 0}; no rows give Q^ncols."""
    if any(len(row) != ncols for row in m):
        raise DimensionMismatch(f"rows of a system in {ncols} unknowns must have length {ncols}")
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


def spd_inverse(a: Sequence[Sequence[int | Fraction]]) -> Matrix | None:
    """Inverse of a positive-definite matrix, or None when ``a`` is not one.

    One Gauss-Jordan elimination of [a | I] without row exchanges.  The k-th
    leading principal minor is the product of the first k pivots, so by
    Sylvester's criterion a symmetric ``a`` is positive definite exactly
    when every pivot is positive; symmetry is the caller's to check.  It runs
    on the integer rows: [d a | d I] reduces to [I | a^-1].
    """
    n = len(a)
    rows, d = integer_rows(a, 2)
    work = [[Fraction(x) if x else _ZERO for x in row] + [Fraction(d * (i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col, top in enumerate(work):
        pivot = top[col]
        if pivot <= 0:
            return None
        top[:] = [x / pivot if x else x for x in top]
        for row in work:
            if row is not top and row[col]:
                factor = row[col]
                row[:] = [x - factor * y if y else x for x, y in zip(row, top)]
    return tuple(tuple(row[n:]) for row in work)
