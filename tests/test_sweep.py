"""Sweep orchestration: determinism, internal consistency, preconditions."""

import numpy as np
import pytest

from lieranders import catalog, identity_metric, make_randers, run_sweep
from lieranders.errors import NotDouglas

from conftest import fr


@pytest.fixture(scope="module")
def structure():
    return make_randers(catalog(2), identity_metric(4), fr(0, 0, "1/2", 0))


def test_sweep_deterministic(structure):
    a = run_sweep(structure, n_samples=64, seed=123)
    b = run_sweep(structure, n_samples=64, seed=123)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.k_f, b.k_f)
    c = run_sweep(structure, n_samples=64, seed=124)
    assert not np.array_equal(a.k_f, c.k_f)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: V and U are drawn as separate (want, dim) blocks, "
    "so a shorter sweep is not a prefix of a longer one",
)
def test_sweep_prefix_stable(structure):
    short = run_sweep(structure, n_samples=64, seed=5)
    long = run_sweep(structure, n_samples=128, seed=5)
    np.testing.assert_array_equal(long.v[:64], short.v)
    np.testing.assert_array_equal(long.k_g[:64], short.k_g)


def test_sweep_columns_consistent(structure):
    res = run_sweep(structure, n_samples=128, seed=5)
    assert len(res) == 128
    gvv = np.einsum("ni,ni->n", res.v, res.v)
    f = np.sqrt(gvv) + 0.5 * res.v[:, 2]
    recon = gvv / f**2 * res.k_g + res.correction
    np.testing.assert_allclose(res.k_f, recon, rtol=1e-12)
    assert res.sign_match.dtype == bool


def test_sweep_requires_douglas():
    bad = make_randers(catalog(2), identity_metric(4), fr("1/2", 0, 0, 0))
    with pytest.raises(NotDouglas):
        run_sweep(bad, n_samples=8, seed=1)


def test_sweep_riemannian_reduction():
    r = make_randers(catalog(3), identity_metric(4), fr(0, 0, 0, 0))
    res = run_sweep(r, n_samples=32, seed=2)
    np.testing.assert_allclose(res.correction, 0.0, atol=1e-15)
    np.testing.assert_allclose(res.k_f, res.k_g, rtol=1e-12)
    np.testing.assert_allclose(res.k_g, -1.0, rtol=1e-9)
    assert res.sign_match.all()
