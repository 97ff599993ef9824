"""Batch flag-curvature sweeps over seeded random flags, and the library's
seeded streams.

Streams are keyed by (seed, stream) through the counter-based Philox engine,
so samples are reproducible and independent of evaluation order.  The key is
an explicit unsigned 64-bit array: numpy would cast a list holding a seed of
2**63 or more through a float, so distinct seeds could share a stream.

Each sweep compiles its structure once with
:func:`lieranders.flagcurv.compile_randers`, the route exact flags take too;
the compile reads the curvature and the bivector forms from the integer
tables kept with the metric and builds no ``Fraction`` table.  A sweep keeps
no state of its own: each call builds the float Gram matrix and rounds the
compiled ``R2`` and ``G2`` monomials afresh.
The sweep is column-major from the draw on: each candidate block is a
Philox fill of V's rows, transposed once into contiguous (dim, n) columns,
then one of U's rows, read only into the bivector columns w = U^V.  The draw
measures each plane once, as G2(w), and the kernels read those columns as
they are: K^g = R2(w) / G2(w) divides by the very G2(w) the rejection
tested, and the draw's g(V, V) gives F too.

This module and :mod:`lieranders.kernels` are the only ones that import
numpy, and only the ``sweep`` command loads them: ``import lieranders`` and
the exact commands run without numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import LieRandersError
from .flagcurv import compile_randers
from .randers import RandersStructure
from .riemann import MetricTensor

# Philox takes the seed as one unsigned 64-bit key word.
_SEED_BOUND = 2**64

# K^F and K^g share their sign when both lie within SIGN_TOL of zero.
SIGN_TOL = 1e-12

# A drawn flag is kept when g(V, V) > MIN_GVV and G2(U^V) > MIN_G2.
MIN_GVV = 1e-6
MIN_G2 = 1e-8


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


def signs_agree(k_f, k_g):
    """Whether K^F and K^g share their sign, elementwise on floats or arrays.

    They do when np.sign gives the same value, or when both lie within
    ``SIGN_TOL`` of zero.  NaN agrees with nothing, and an infinite value
    only with a value of its own sign.
    """
    return (np.sign(k_f) == np.sign(k_g)) | (np.maximum(np.abs(k_f), np.abs(k_g)) <= SIGN_TOL)


def dense_gram(metric: MetricTensor) -> np.ndarray:
    """The Gram matrix as floats, each entry one int / int of the metric's
    Gram numerators (correctly rounded, so the bits of ``float(Fraction)``)."""
    g, d = metric._gram_numerators
    return np.array([[x / d for x in row] for row in g])


def _check_flags_can_pass(metric: MetricTensor) -> None:
    """LieRandersError when no drawn flag can pass the rejection test: on the
    cube [-1, 1]^n, G2(U^V) <= g(U,U) g(V,V) <= (sum |G_ij|)^2, decided
    exactly in integers on the Gram numerators."""
    g, d = metric._gram_numerators
    total = sum(abs(x) for row in g for x in row)  # sum |G_ij| = total / d
    cube = f"on [-1, 1]^{metric.dim}"
    p, q = MIN_GVV.as_integer_ratio()
    if total * q <= p * d:
        raise LieRandersError(
            f"sweep: no drawn flag has g(V,V) > {MIN_GVV}: "
            f"{cube}, g(V,V) <= sum |G_ij| = {Fraction(total, d)}"
        )
    p, q = MIN_G2.as_integer_ratio()
    if total * total * q <= p * d * d:
        raise LieRandersError(
            f"sweep: no drawn flag has G2(U^V) > {MIN_G2}: "
            f"{cube}, G2(U^V) <= (sum |G_ij|)^2 = {Fraction(total, d) ** 2}"
        )


@dataclass
class SweepResult:
    """Columns of one sweep; rows are flags (V = aX+bY+cZ+dW, U discarded)."""

    v: np.ndarray            # (n, dim) flag poles: a transposed view of the (dim, n) V columns
    k_g: np.ndarray
    k_f: np.ndarray
    correction: np.ndarray
    sign_match: np.ndarray   # bool; zero curvature counts as matching zero

    def __len__(self) -> int:
        return len(self.k_g)


def _uniform_rows(rng: np.random.Generator, want: int, dim: int) -> np.ndarray:
    """(want, dim) draws of ``uniform(-1, 1)``, bit for bit: ``random()``
    scaled in place."""
    x = rng.random((want, dim))
    x *= 2.0
    x -= 1.0
    return x


def _draw_flags(
    gram: np.ndarray, g2, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(v, w, g(V, V), G2(w)) of ``n_samples`` seeded flags, near-degenerate
    ones rejected; v and the bivectors w = U^V are contiguous (dim, n) and
    (dim (dim - 1) / 2, n) columns.  ``gram`` is the float Gram matrix and
    ``g2`` the rounded ``G2`` monomials.

    Each candidate block is two ``make_rng(seed, stream=3).random((want,
    dim))`` fills scaled in place to [-1, 1): the bits of ``uniform(-1, 1)``
    for the V rows, then the U rows, in stream order.  V is copied once into
    its columns; U is read only into w and freed as soon as w exists.  A
    flag is kept when g(V,V) > MIN_GVV and G2(w) > MIN_G2; G2(w) is
    g(U,U) g(V,V) - g(U,V)^2 evaluated on w, and one product G v gives
    g(V,V).  A block with no rejected row is kept whole; blocks with
    rejected rows are compacted on their columns and joined.
    """
    dim = len(gram)
    rng = make_rng(seed, stream=3)
    blocks = []
    want = n_samples
    while want or not blocks:  # n_samples = 0 draws one empty block
        v = _uniform_rows(rng, want, dim).T.copy()
        w = kernels.wedge_batch(_uniform_rows(rng, want, dim).T, v)
        vv = np.einsum("kn,kn->n", v, gram @ v)
        g2w = kernels.form_batch(g2, w)
        columns = (v, w, vv, g2w)
        good = (vv > MIN_GVV) & (g2w > MIN_G2)
        if not good.all():
            columns = tuple(np.compress(good, x, axis=-1) for x in columns)
        blocks.append(columns)
        want -= len(columns[2])
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(column, axis=-1) for column in zip(*blocks))


def run_sweep(r: RandersStructure, n_samples: int, seed: int) -> SweepResult:
    """Evaluate K^g, K^F and the correction on seeded random flags.

    Flags are drawn from the counter-based Philox stream keyed by ``seed``,
    so the same seed and the same ``n_samples`` give the same rows.  Rows do
    depend on ``n_samples``: V and U are drawn as separate ``(want, dim)``
    fills of each candidate block, so a shorter sweep is not a prefix of a
    longer one.  K^g = R2(w) / G2(w) reads the bivectors w = U^V and the
    G2(w) the draw's rejection tested; U itself is never kept.
    ``n_samples = 0`` gives empty columns.  Raises LieRandersError when
    ``n_samples`` is not a non-negative integer, when ``seed`` is not an
    integer in [0, 2**64) (bools are neither), below dimension 2, where
    no flag plane exists, and when the metric is so small that no drawn
    flag can pass the rejection test (``_check_flags_can_pass``);
    NotDouglas when Q is not g-orthogonal to [g, g].
    """
    if not _is_int(n_samples) or n_samples < 0:
        raise LieRandersError(
            f"sweep n_samples must be a non-negative integer; got {n_samples!r}"
        )
    seed = _check_seed(seed)
    dim = r.dim
    if dim < 2:
        raise LieRandersError(f"sweep needs dimension >= 2 for a flag plane; got {dim}")
    compiled = compile_randers(r)
    _check_flags_can_pass(r.metric)
    gram = dense_gram(r.metric)
    v, w, gvv, g2w = _draw_flags(gram, compiled.g2.rounded(), int(n_samples), seed)
    k_g = kernels.sectional_batch(compiled.r2.rounded(), w, g2w)
    del w, g2w
    f = kernels.eval_f_batch(gvv, compiled.gq.rounded(), v)
    correction = kernels.correction_batch(compiled.a.rounded(), compiled.c.rounded(), v, f)
    # k_f = gvv / f**2 * k_g + correction, in place and in that order
    k_f = f * f
    np.divide(gvv, k_f, out=k_f)
    k_f *= k_g
    k_f += correction
    sign_match = signs_agree(k_f, k_g)
    return SweepResult(v=v.T, k_g=k_g, k_f=k_f, correction=correction, sign_match=sign_match)
