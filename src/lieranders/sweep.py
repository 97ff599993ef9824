"""Batch flag-curvature sweeps over seeded random flags.

Exact tables (structure constants, Gram matrix, curvature tensor) are
flattened once per sweep into float arrays and compiled into the bivector
curvature operator and the quadratic and cubic correction forms of
:mod:`lieranders.kernels`; per-sample work is then a few matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import LieAlgebra
from .classify import require_douglas
from .flagcurv import signs_agree
from .randers import RandersStructure, dense_gram
from .riemann import MetricTensor, curvature_tensor, levi_civita


def dense_structure(algebra: LieAlgebra) -> np.ndarray:
    return np.array(algebra.structure, dtype=float)


def dense_curvature(algebra: LieAlgebra, metric: MetricTensor) -> np.ndarray:
    """rm4[i,j,k,l] = g(R(e_i,e_j)e_k, e_l) as floats."""
    table = curvature_tensor(algebra, levi_civita(algebra, metric))
    return np.array(table.r, dtype=float) @ dense_gram(metric)


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


def run_sweep(
    r: RandersStructure, n_samples: int, seed: int, sign_tol: float = 1e-12
) -> SweepResult:
    """Evaluate K^g, K^F and the correction on seeded random flags.

    Flags are drawn from the counter-based Philox stream keyed by ``seed``,
    so the same seed and the same ``n_samples`` give the same rows.  Rows do
    depend on ``n_samples``: V and U are drawn as separate ``(want, dim)``
    blocks, so a shorter sweep is not a prefix of a longer one.
    """
    require_douglas(r)
    dim = r.dim
    struct = dense_structure(r.algebra)
    gram = dense_gram(r.metric)
    rm4 = dense_curvature(r.algebra, r.metric)
    q = np.array(r.q_field, dtype=float)
    r2, g2 = kernels.bivector_forms(rm4, gram)
    quad, cubic = kernels.randers_forms(struct, gram, np.linalg.inv(gram), q)

    rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
    V = np.empty((n_samples, dim))
    U = np.empty((n_samples, dim))
    gvv = np.empty(n_samples)  # g(V, V), kept from the rejection test
    filled = 0
    while filled < n_samples:
        want = n_samples - filled
        cand_v = rng.uniform(-1.0, 1.0, size=(want, dim))
        cand_u = rng.uniform(-1.0, 1.0, size=(want, dim))
        # keep flags comfortably nondegenerate
        gv = np.einsum("ni,ij,nj->n", cand_v, gram, cand_v)
        gu = np.einsum("ni,ij,nj->n", cand_u, gram, cand_u)
        guv = np.einsum("ni,ij,nj->n", cand_v, gram, cand_u)
        good = (gv > 1e-6) & (gu * gv - guv**2 > 1e-8)
        took = int(good.sum())
        V[filled : filled + took] = cand_v[good]
        U[filled : filled + took] = cand_u[good]
        gvv[filled : filled + took] = gv[good]
        filled += took

    f = kernels.eval_f_batch(gram, q, V)
    k_g = kernels.sectional_batch(r2, g2, U, V)
    correction = kernels.correction_batch(quad, cubic, V, f)
    k_f = gvv / f**2 * k_g + correction
    sign_match = signs_agree(k_f, k_g, sign_tol)
    return SweepResult(v=V, k_g=k_g, k_f=k_f, correction=correction, sign_match=sign_match)
