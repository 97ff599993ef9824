import contextlib
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from lieranders import (
    ComplexStructureTriple,
    Flag,
    LieAlgebra,
    MetricTensor,
    catalog,
    douglas_subspace,
    identity_metric,
    make_randers,
)
from lieranders import exactlinalg as xl
from lieranders.errors import DimensionMismatch
from lieranders.sweep import make_rng

from exact_oracles import vec_add


# left multiplication by i, j and k on H with (X, Y, Z, W) = (1, i, j, k): a
# hypercomplex triple on catalog cases 0, 1 and 3, hyper-Hermitian for the
# identity metric
_LEFT_I = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
_LEFT_J = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
QUATERNION_TRIPLE = ComplexStructureTriple(
    j1=_LEFT_I, j2=_LEFT_J, j3=xl.mat_mul(_LEFT_I, _LEFT_J)
)


@pytest.fixture(scope="session")
def metric4():
    return identity_metric(4)


@pytest.fixture(scope="session")
def algebras():
    return {cid: catalog(cid) for cid in range(5)}


def fr(*values):
    """Shorthand: exact vector from ints/strings."""
    return tuple(Fraction(v) for v in values)


def mat(rows):
    """Exact matrix from rows of ints/strings/Fractions; ragged rows are rejected."""
    m = tuple(fr(*row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


def spd_metric(p):
    """The metric with Gram matrix P^T P + I, positive definite for every P."""
    gram = xl.mat_mul(xl.transpose(p), p)
    return MetricTensor(
        gram=tuple(tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(gram))
    )


def random_rational(rng, max_abs_num=9, max_den=4):
    """A small exact rational num/den drawn from ``rng``, so exact arithmetic stays fast."""
    num = int(rng.integers(-max_abs_num, max_abs_num + 1))
    den = int(rng.integers(1, max_den + 1))
    return Fraction(num, den)


def random_rational_vector(rng, dim, max_abs_num=9, max_den=4):
    return tuple(random_rational(rng, max_abs_num, max_den) for _ in range(dim))


def random_nonzero_vector(rng, dim):
    while True:
        v = random_rational_vector(rng, dim)
        if any(v):
            return v


def random_flag_pair(rng, dim):
    """Exact (V, U) with span{U, V} two-dimensional."""
    v = random_nonzero_vector(rng, dim)
    while True:
        u = random_rational_vector(rng, dim)
        if xl.rank((v, u)) == 2:
            return v, u


def random_q_in_subspace(rng, subspace, metric):
    """Exact Q inside the subspace with g(Q,Q) < 1, scaled down when needed."""
    if not subspace.basis:
        return xl.zero_vector(subspace.ambient_dim)
    q = xl.zero_vector(subspace.ambient_dim)
    for b in subspace.basis:
        q = vec_add(q, xl.vec_scale(random_rational(rng, 6, 4), b))
    norm_sq = metric.inner(q, q)
    if norm_sq >= 1:
        # s/(1+ceil(s))^2 < 1 for s > 0, so this scale always lands inside
        ceil_s = -((-norm_sq.numerator) // norm_sq.denominator)
        q = xl.vec_scale(Fraction(1, 1 + ceil_s), q)
    return q


def douglas_pole_flags(r, n, seed):
    """n exact flags with the pole drawn in the Douglas subspace and U
    anywhere, from ``make_rng(seed, stream=2)``; dependent pairs are redrawn."""
    rng = make_rng(seed, stream=2)
    basis = douglas_subspace(r.algebra, r.metric).basis
    flags = []
    while len(flags) < n:
        v = xl.zero_vector(r.dim)
        for b in basis:
            v = vec_add(v, xl.vec_scale(random_rational(rng), b))
        u = random_rational_vector(rng, r.dim)
        if xl.rank((v, u)) == 2:
            flags.append(Flag(v=v, u=u))
    return flags


def sphere_directions(n, dim, seed):
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


SO3 = LieAlgebra.from_brackets(
    3, ("e1", "e2", "e3"), {(0, 1): fr(0, 0, 1), (1, 2): fr(1, 0, 0), (2, 0): fr(0, 1, 0)}
)
# R acting by the derivation diag(1, 2, 3, 1/2) on heis3 + R
SOLV5 = LieAlgebra.from_brackets(
    5,
    ("e0", "e1", "e2", "e3", "e4"),
    {
        (0, 1): fr(0, 1, 0, 0, 0),
        (0, 2): fr(0, 0, 2, 0, 0),
        (0, 3): fr(0, 0, 0, 3, 0),
        (0, 4): fr(0, 0, 0, 0, "1/2"),
        (1, 2): fr(0, 0, 0, 1, 0),
    },
)


def dense_metric(n):
    """Every entry nonzero; diagonally dominant, so positive definite."""
    return MetricTensor(
        gram=tuple(
            tuple(Fraction(i + 2) if i == j else Fraction(1, i + j + 2) for j in range(n))
            for i in range(n)
        )
    )


# name -> () -> (algebra, metric): catalog cases 0-4, so(3) and SOLV5, each
# under the identity and the dense test metric
SPACES = {
    f"{name}-{kind}": (lambda algebra=algebra, kind=kind: (
        algebra, identity_metric(algebra.dim) if kind == "identity" else dense_metric(algebra.dim)
    ))
    for name, algebra in [
        *((f"case{cid}", catalog(cid)) for cid in range(5)), ("so3", SO3), ("solv5", SOLV5)
    ]
    for kind in ("identity", "dense")
}


def douglas_q(algebra, metric):
    """A Douglas Q mixing every direction of the Douglas subspace, g(Q,Q) < 1."""
    basis = douglas_subspace(algebra, metric).basis
    q = tuple(
        sum(Fraction(k + 1) * b[i] for k, b in enumerate(basis)) for i in range(algebra.dim)
    )
    norm = metric.inner(q, q)
    return tuple(Fraction(3, 4) * x / (1 + int(norm)) for x in q)


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, instead of hanging, past ``seconds`` (Unix)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def douglas_structures(draw, identity=st.just(False)):
    """Random antisymmetric structure constants with no e_last component, so
    [g, g] misses e_last and the Douglas subspace is nonzero; metric
    P^T P + I, or the identity where ``identity`` draws True; Q in the
    Douglas subspace; a random flag.  The forms are identities without
    Jacobi, so it is not required."""
    n = draw(st.integers(min_value=2, max_value=5))
    vector = st.tuples(*[SMALL_RATIONALS] * n)
    brackets = {
        (i, j): draw(st.tuples(*[SMALL_RATIONALS] * (n - 1))) + (Fraction(0),)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    algebra = LieAlgebra.from_brackets(n, tuple(f"e{i}" for i in range(n)), brackets)
    p = draw(st.tuples(*[vector] * n))
    metric = identity_metric(n) if draw(identity) else spd_metric(p)
    basis = douglas_subspace(algebra, metric).basis
    coeffs = draw(st.tuples(*[SMALL_RATIONALS] * len(basis)))
    q = xl.zero_vector(n)
    for c, b in zip(coeffs, basis):
        q = vec_add(q, xl.vec_scale(c, b))
    norm = metric.inner(q, q)
    q = xl.vec_scale(Fraction(1, 2 + int(norm)), q)  # g(Q,Q) < 1
    v, u = draw(vector), draw(vector)
    assume(xl.rank([v, u]) == 2)
    return make_randers(algebra, metric, q), Flag(v=v, u=u)
