"""Seed checking and stream keys of ``sampling.make_rng``.

Every seeded stream (``sign_analysis``, ``sphere_directions``, ``run_sweep``)
is keyed through ``make_rng`` by the exact unsigned 64-bit pair
(seed, stream); a seed outside the integers in [0, 2**64) is rejected.
"""

import warnings

import numpy as np
import pytest

from lieranders import catalog, identity_metric, make_randers
from lieranders.errors import LieRandersError
from lieranders.flagcurv import sign_analysis
from lieranders.sampling import make_rng, sphere_directions

from conftest import fr


def draws(rng):
    return rng.integers(0, 2**63, size=8).tolist()


def test_seeds_above_2_63_get_distinct_streams():
    # a list key casts these through a float to one and the same key word
    a, b = 2**63 + 12345, 2**63 + 12288
    assert draws(make_rng(a)) != draws(make_rng(b))
    assert draws(make_rng(a, stream=2)) != draws(make_rng(b, stream=2))


def test_top_seed_has_its_own_stream_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = draws(make_rng(2**64 - 1, stream=1))
    assert top != draws(make_rng(0, stream=1))


@pytest.mark.parametrize("seed", [0, 7, 12345, 2**32 + 5, 2**63 - 1])
@pytest.mark.parametrize("stream", [0, 1, 2, 3])
def test_seeds_below_2_63_keep_their_streams(seed, stream):
    # the key of every seed below 2**63 is the one the list [seed, stream] gave
    old = np.random.Generator(np.random.Philox(key=[seed, stream]))
    assert draws(make_rng(seed, stream)) == draws(old)


@pytest.mark.parametrize("seed", [-1, 1.5, True, 2**64])
def test_bad_seeds_are_rejected(seed):
    pattern = r"seed must be an integer in \[0, 2\*\*64\)"
    with pytest.raises(LieRandersError, match=pattern):
        make_rng(seed)
    with pytest.raises(LieRandersError, match=pattern):
        sphere_directions(3, 4, seed)
    r = make_randers(catalog(2), identity_metric(4), fr(0, 0, "1/2", 0))
    with pytest.raises(LieRandersError, match=pattern):
        sign_analysis(r, n_samples=2, seed=seed)


def test_sign_analysis_accepts_seeds_above_2_63():
    r = make_randers(catalog(2), identity_metric(4), fr(0, 0, "1/2", 0))
    a = sign_analysis(r, n_samples=4, seed=2**63 + 12345)
    b = sign_analysis(r, n_samples=4, seed=2**63 + 12288)
    assert [s.v for s in a.samples] != [s.v for s in b.samples]
