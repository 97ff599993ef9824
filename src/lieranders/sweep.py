"""Batch flag-curvature sweeps over seeded random flags, and the library's
seeded streams.

Streams are keyed by (seed, stream) through the counter-based Philox engine,
so samples are reproducible and independent of evaluation order.  The key is
an explicit unsigned 64-bit array: numpy would cast a list holding a seed of
2**63 or more through a float, so distinct seeds could share a stream.

Each sweep compiles its structure once with
:func:`lieranders.flagcurv.compile_randers`, the route exact flags take too;
the compile reads the curvature and the bivector forms from the integer
tables kept with the metric and builds no ``Fraction`` table.  The kernels
read each form's rounded monomials; only the draw uses a float Gram matrix,
one product per block of V and of U, and its g(V, V) gives F too.  The sweep
is column-major from the draw on: each candidate block is one Philox fill,
transposed once into contiguous (dim, n) columns of V and of U, and every
kernel reads those columns as they are.

This module and :mod:`lieranders.kernels` are the only ones that import
numpy, and only the ``sweep`` command loads them: ``import lieranders`` and
the exact commands run without numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import LieRandersError
from .flagcurv import compile_randers
from .randers import RandersStructure
from .riemann import MetricTensor

# Philox takes the seed as one unsigned 64-bit key word.
_SEED_BOUND = 2**64

# K^F and K^g share their sign when both lie within SIGN_TOL of the largest
# of 1, |K^F| and |K^g|.
SIGN_TOL = 1e-12


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
    ``SIGN_TOL * max(1, |k_f|, |k_g|)`` of zero, the maximum taken over
    finite magnitudes only, so an infinite value agrees only with a value of
    its own sign.  NaN agrees with nothing.  The tolerance is evaluated only
    where the signs differ.
    """
    k_f, k_g = np.asarray(k_f), np.asarray(k_g)
    agree = np.asarray(np.sign(k_f) == np.sign(k_g))
    differ = ~agree
    if differ.any():
        abs_f, abs_g = np.abs(k_f[differ]), np.abs(k_g[differ])
        scale = np.maximum(abs_f, abs_g)
        # an infinite value lies within no finite tolerance, so 1 can stand in for it
        scale[np.isinf(scale)] = 1.0
        tol = SIGN_TOL * np.maximum(1.0, scale)
        agree[differ] = (abs_f <= tol) & (abs_g <= tol)
    return agree


def dense_gram(metric: MetricTensor) -> np.ndarray:
    """The Gram matrix as floats."""
    return np.array(metric.gram, dtype=float)


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


def _draw_flags(
    gram: np.ndarray, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, u, g(V, V)) of ``n_samples`` seeded flags, near-degenerate ones
    rejected; v and u are contiguous (dim, n) columns.

    Each candidate block is one ``make_rng(seed, stream=3).random((2, want,
    dim))`` scaled in place to [-1, 1): the bits of ``uniform(-1, 1)`` for
    the V block, then the U block, in stream order.  V and U are transposed
    once each into separate columns, so a result that keeps V never pins U.
    A flag is kept when g(V,V) > 1e-6 and g(U,U) g(V,V) - g(U,V)^2 > 1e-8;
    the product G v serves both g(V,V) and g(U,V).  A block with no rejected
    row is kept whole; blocks with rejected rows are compacted on their
    columns and joined.
    """
    dim = len(gram)
    rng = make_rng(seed, stream=3)
    blocks = []
    want = n_samples
    while want or not blocks:  # n_samples = 0 draws one empty block
        cand = rng.random((2, want, dim))
        cand *= 2.0
        cand -= 1.0
        v, u = cand[0].T.copy(), cand[1].T.copy()
        gv = gram @ v
        vv = np.einsum("kn,kn->n", v, gv)
        uv = np.einsum("kn,kn->n", u, gv)
        uu = np.einsum("kn,kn->n", u, np.matmul(gram, u, out=gv))
        # the Gram determinant g(U,U) g(V,V) - g(U,V)^2, in place
        uu *= vv
        uv *= uv
        uu -= uv
        good = (vv > 1e-6) & (uu > 1e-8)
        if not good.all():
            v, u, vv = (np.compress(good, x, axis=-1) for x in (v, u, vv))
        blocks.append((v, u, vv))
        want -= len(vv)
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(column, axis=-1) for column in zip(*blocks))


def run_sweep(r: RandersStructure, n_samples: int, seed: int) -> SweepResult:
    """Evaluate K^g, K^F and the correction on seeded random flags.

    Flags are drawn from the counter-based Philox stream keyed by ``seed``,
    so the same seed and the same ``n_samples`` give the same rows.  Rows do
    depend on ``n_samples``: V and U are drawn as separate ``(want, dim)``
    halves of each candidate block, so a shorter sweep is not a prefix of a
    longer one.
    ``n_samples = 0`` gives empty columns.  Raises LieRandersError when
    ``n_samples`` is not a non-negative integer, when ``seed`` is not an
    integer in [0, 2**64) (bools are neither), and below dimension 2, where
    no flag plane exists; NotDouglas when Q is not g-orthogonal to [g, g].
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
    v, u, gvv = _draw_flags(dense_gram(r.metric), int(n_samples), seed)
    f = kernels.eval_f_batch(gvv, compiled.gq.rounded(), v)
    k_g = kernels.sectional_batch(compiled.r2.rounded(), compiled.g2.rounded(), u, v)
    correction = kernels.correction_batch(compiled.a.rounded(), compiled.c.rounded(), v, f)
    # k_f = gvv / f**2 * k_g + correction, in place and in that order
    k_f = f * f
    np.divide(gvv, k_f, out=k_f)
    k_f *= k_g
    k_f += correction
    sign_match = signs_agree(k_f, k_g)
    return SweepResult(v=v.T, k_g=k_g, k_f=k_f, correction=correction, sign_match=sign_match)
