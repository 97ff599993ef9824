"""Deterministic sample generation for sweeps and sign analysis.

Streams are keyed by (seed, stream) through the counter-based Philox engine,
so samples are reproducible and independent of evaluation order.  The key is
an explicit unsigned 64-bit array: numpy would cast a list holding a seed of
2**63 or more through a float, so distinct seeds could share a stream.
Rational samples keep numerators and denominators small to keep exact
arithmetic fast.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

import numpy as np

from .algebra import AlgebraVector
from .errors import LieRandersError

# Philox takes the seed as one unsigned 64-bit key word.
_SEED_BOUND = 2**64


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    """``seed`` as an int, or LieRandersError unless it is an integer (not a
    bool) in [0, 2**64)."""
    if not _is_int(seed) or not 0 <= seed < _SEED_BOUND:
        raise LieRandersError(f"seed must be an integer in [0, 2**64); got {seed!r}")
    return int(seed)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by (seed, stream); LieRandersError unless
    ``seed`` is an integer in [0, 2**64)."""
    key = np.array([_check_seed(seed), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_rational(
    rng: np.random.Generator, max_abs_num: int = 9, max_den: int = 4
) -> Fraction:
    num = int(rng.integers(-max_abs_num, max_abs_num + 1))
    den = int(rng.integers(1, max_den + 1))
    return Fraction(num, den)


def random_rational_vector(
    rng: np.random.Generator, dim: int, max_abs_num: int = 9, max_den: int = 4
) -> AlgebraVector:
    return tuple(random_rational(rng, max_abs_num, max_den) for _ in range(dim))
