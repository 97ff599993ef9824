"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of row tuples.  ``common_denominator`` is the one
exactness gate: every exact constructor and elimination passes its input
through it, and anything but an int or a ``fractions.Fraction`` (a float, a
string, a ``Decimal``, a numpy integer) raises TypeError.  ``integer_rows``
gates a nested table and keeps its numerators in the table's rows.  One
elimination, ``_eliminate``, serves ``rref``, ``rank``, ``nullspace`` and
``spd_inverse``: Gauss-Jordan on the integer rows without fractions, each
step dividing exactly by the previous pivot (E. H. Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math. Comp.
22, 1968), so ``Fraction``s are built only for the results.  Without row
exchanges its pivots are the leading principal minors, so one elimination
of [a | I] (``spd_inverse``) both decides positive definiteness and gives
the inverse.  ``mat_mul`` multiplies integer rows and Fraction rows alike.
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

_EXACT = (int, Fraction)  # the exact input types; bool is an int

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
    positive such ``d``; no values give ``([], 1)``.  Accepts ints (bools
    too) and Fractions; anything else (a float, a string, a numpy integer)
    raises TypeError.
    """
    values = list(values)
    # by type, not by a ``denominator`` attribute: numpy integers have one and wrap around
    dens = [x.denominator for x in values if isinstance(x, _EXACT)]
    if len(dens) != len(values):
        raise _refuse(next(x for x in values if not isinstance(x, _EXACT)))
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """``a b`` in the entries' own type: integer rows give integer rows."""
    if any(len(row) != len(b) for row in a) or len({len(row) for row in b}) > 1:
        raise DimensionMismatch(f"mat_mul needs left rows of length {len(b)}, right rows alike")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def _eliminate(rows: Sequence[Sequence[int | Fraction]], exchange: bool = True):
    """Fraction-free Gauss-Jordan elimination of ``rows`` on their integer rows.

    Returns ``(work, pivots, minors)``: the eliminated integer rows, the
    pivot columns, and 1 followed by the pivot values.  Each step rewrites
    every other row as ``(p row - row[col] top) // prev``, with ``top`` the
    pivot row, ``p`` its pivot and ``prev`` the pivot value before it.
    Bareiss's identity makes every entry a minor of the input, so the
    division is exact, and each pivot row ends with ``minors[-1]`` in its
    own pivot column and zeros in the other pivot columns.  With
    ``exchange`` a column's pivot is its first nonzero entry at or below the
    next pivot row; without, the pivot of row k is its diagonal entry, the
    elimination stops at the first zero one, and each pivot value is a
    leading principal minor.  Rows of different lengths raise
    DimensionMismatch.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch(f"rows must share one length; got {sorted({len(r) for r in rows})}")
    work = [list(row) for row in integer_rows(rows, 2)[0]]
    pivots: list[int] = []
    minors = [1]  # the empty minor, then one per pivot
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        if exchange:
            k = next((i for i in range(r, len(work)) if work[i][col]), None)
            if k is None:
                continue
            work[r], work[k] = work[k], work[r]
        elif not work[r][col]:
            break
        top, prev = work[r], minors[-1]
        p = top[col]
        for i, row in enumerate(work):
            f = row[col]
            if i != r and (f or p != prev):  # else the row is unchanged
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        minors.append(p)
    return work, pivots, minors


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form, in Fractions; returns (rows, pivot columns).

    Zero rows are dropped, pivots are 1, and rows come out sorted by pivot
    column, so the result is a canonical representative of the row space:
    the pivot rows of ``_eliminate`` over the last pivot value.  Rows of
    different lengths raise DimensionMismatch.
    """
    work, pivots, minors = _eliminate(rows)
    reduced = tuple(tuple(Fraction(x, minors[-1]) for x in row) for row in work[: len(pivots)])
    return reduced, tuple(pivots)


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    return len(_eliminate(rows)[1])


def nullspace(m: Sequence[Sequence[int | Fraction]], ncols: int) -> Matrix:
    """Canonical (rref) basis of {x in Q^ncols : m x = 0}; no rows give Q^ncols.

    Free column j gives the integer solution with x_j = p, the last pivot
    value (1 for no pivots), and x_c = -row[j] at the pivot column c of each
    eliminated row.
    """
    if any(len(row) != ncols for row in m):
        raise DimensionMismatch(f"rows of a system in {ncols} unknowns must have length {ncols}")
    work, pivots, minors = _eliminate(m)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            x = [0] * ncols
            x[j] = minors[-1]
            for row, pcol in zip(work, pivots):
                x[pcol] = -row[j]
            basis.append(x)
    return rref(basis)[0]


def spd_inverse(a: Sequence[Sequence[int | Fraction]]) -> Matrix | None:
    """Inverse of a positive-definite matrix, or None when ``a`` is not one.

    ``_eliminate`` of [a | I], that is of [d a | d I], without row
    exchanges: its k-th pivot value is the k-th leading principal minor of
    d a, so by Sylvester's criterion a symmetric ``a`` is positive definite
    exactly when there are n pivots and all are positive; symmetry is the
    caller's to check.  The rows then end as [p I | p a^-1], p the last pivot.
    """
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    work, pivots, minors = _eliminate(rows, exchange=False)
    if len(pivots) < n or min(minors) <= 0:
        return None
    return tuple(tuple(Fraction(x, minors[-1]) for x in row[n:]) for row in work)
