"""Batch flag-curvature sweeps over seeded random flags.

Each sweep compiles its structure once with
:func:`lieranders.flagcurv.compile_randers`, the route exact flags take too;
the compile reads the curvature and the bivector forms from the integer
tables kept with the metric and builds no ``Fraction`` table.  The float
bivector curvature operator and correction forms come from
:meth:`~lieranders.flagcurv.CompiledRanders.dense`.  The rejection test of
each candidate block takes one Gram product per block of V and one per
block of U, and every g(., .) as a two-operand row dot.  Per-sample work is
then a few matrix products in :mod:`lieranders.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import LieRandersError
from .flagcurv import compile_randers, signs_agree
from .randers import RandersStructure, dense_gram
from .sampling import _check_seed, _is_int, make_rng


@dataclass
class SweepResult:
    """Columns of one sweep; rows are flags (V = aX+bY+cZ+dW, U discarded)."""

    v: np.ndarray            # (n, dim) flag poles
    k_g: np.ndarray
    k_f: np.ndarray
    correction: np.ndarray
    sign_match: np.ndarray   # bool; zero curvature counts as matching zero

    def __len__(self) -> int:
        return len(self.k_g)


def _draw_flags(
    gram: np.ndarray, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, U, g(V, V)) of ``n_samples`` seeded flags, near-degenerate ones rejected.

    Candidates come from ``make_rng(seed, stream=3)`` as (want,
    dim) blocks, V then U; a flag is kept when g(V,V) > 1e-6 and
    g(U,U) g(V,V) - g(U,V)^2 > 1e-8.  The product V G serves both g(V,V)
    and g(U,V).
    """
    dim = len(gram)
    rng = make_rng(seed, stream=3)
    V = np.empty((n_samples, dim))
    U = np.empty((n_samples, dim))
    gvv = np.empty(n_samples)
    filled = 0
    while filled < n_samples:
        want = n_samples - filled
        cand_v = rng.uniform(-1.0, 1.0, size=(want, dim))
        cand_u = rng.uniform(-1.0, 1.0, size=(want, dim))
        gv = cand_v @ gram
        vv = np.einsum("nk,nk->n", cand_v, gv)
        uu = np.einsum("nk,nk->n", cand_u, cand_u @ gram)
        uv = np.einsum("nk,nk->n", cand_u, gv)
        good = (vv > 1e-6) & (uu * vv - uv**2 > 1e-8)
        took = int(good.sum())
        V[filled : filled + took] = cand_v[good]
        U[filled : filled + took] = cand_u[good]
        gvv[filled : filled + took] = vv[good]
        filled += took
    return V, U, gvv


def run_sweep(r: RandersStructure, n_samples: int, seed: int) -> SweepResult:
    """Evaluate K^g, K^F and the correction on seeded random flags.

    Flags are drawn from the counter-based Philox stream keyed by ``seed``,
    so the same seed and the same ``n_samples`` give the same rows.  Rows do
    depend on ``n_samples``: V and U are drawn as separate ``(want, dim)``
    blocks, so a shorter sweep is not a prefix of a longer one.
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
    r2, g2, quad, cubic = compile_randers(r).dense()
    gram = dense_gram(r.metric)
    q = np.array(r.q_field, dtype=float)

    V, U, gvv = _draw_flags(gram, int(n_samples), seed)
    f = kernels.eval_f_batch(gram, q, V)
    k_g = kernels.sectional_batch(r2, g2, U, V)
    correction = kernels.correction_batch(quad, cubic, V, f)
    k_f = gvv / f**2 * k_g + correction
    sign_match = signs_agree(k_f, k_g)
    return SweepResult(v=V, k_g=k_g, k_f=k_f, correction=correction, sign_match=sign_match)
