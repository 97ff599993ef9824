"""Deterministic sample generation for sweeps and property suites.

Streams are keyed by (seed, stream) through the counter-based Philox engine,
so samples are reproducible and independent of evaluation order.
Rational samples keep numerators and denominators small to keep exact
arithmetic fast.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactlinalg as xl
from .algebra import AlgebraVector, Subspace
from .riemann import MetricTensor


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


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


def random_nonzero_vector(rng: np.random.Generator, dim: int) -> AlgebraVector:
    while True:
        v = random_rational_vector(rng, dim)
        if not xl.vec_is_zero(v):
            return v


def random_flag_pair(
    rng: np.random.Generator, dim: int
) -> tuple[AlgebraVector, AlgebraVector]:
    """Exact (V, U) with span{U, V} two-dimensional."""
    v = random_nonzero_vector(rng, dim)
    while True:
        u = random_rational_vector(rng, dim)
        if xl._independent_pair(v, u):
            return v, u


def random_q_in_subspace(
    rng: np.random.Generator, subspace: Subspace, metric: MetricTensor
) -> AlgebraVector:
    """Exact Q inside the subspace with g(Q,Q) < 1, scaled down when needed."""
    if not subspace.basis:
        return xl.zero_vector(subspace.ambient_dim)
    q = xl.zero_vector(subspace.ambient_dim)
    for b in subspace.basis:
        q = xl.vec_add(q, xl.vec_scale(random_rational(rng, 6, 4), b))
    norm_sq = metric.inner(q, q)
    if norm_sq >= 1:
        # s/(1+ceil(s))^2 < 1 for s > 0, so this scale always lands inside
        ceil_s = -((-norm_sq.numerator) // norm_sq.denominator)
        q = xl.vec_scale(Fraction(1, 1 + ceil_s), q)
    return q


def sphere_directions(n: int, dim: int, seed: int) -> np.ndarray:
    """n deterministic unit vectors (rows), Gaussian-then-normalize."""
    rng = make_rng(seed, stream=1)
    pts = rng.normal(size=(n, dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # resample rows that came out numerically degenerate
    while (norms < 1e-12).any():
        bad = norms[:, 0] < 1e-12
        pts[bad] = rng.normal(size=(int(bad.sum()), dim))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts / norms
