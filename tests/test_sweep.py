"""Sweep orchestration: determinism, internal consistency, preconditions.

The draw is checked against ``oracle_draw``, which draws V and U as two
``uniform(-1, 1)`` row blocks and takes each g(., .) of the rejection test
as a three-operand einsum, rejecting on the Lagrange determinant
g(U,U) g(V,V) - g(U,V)^2; ``run_sweep`` fills both blocks with
``random()``, keeps V's transposed columns and U only as the bivectors
w = U^V, rejects on G2(w), the same number in exact arithmetic, and must keep
exactly the same flags, both when it keeps a candidate block whole and when
it compacts one.  The float Gram matrix is checked for its bits, and the
exact bound check, which refuses a metric no drawn flag can pass, at both
sides of each bound.
"""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lieranders import (
    LieAlgebra,
    MetricTensor,
    catalog,
    identity_metric,
    kernels,
    make_randers,
)
from lieranders.classify import reproduce_theorem
from lieranders.definition import load_definition
from lieranders.errors import LieRandersError, NotDouglas
from lieranders.flagcurv import compile_randers
from lieranders.sweep import (
    MIN_G2,
    MIN_GVV,
    _check_flags_can_pass,
    _draw_flags,
    dense_gram,
    run_sweep,
)

from conftest import (
    deadline,
    dense_metric,
    douglas_q,
    fr,
    random_rational_vector,
    spd_metric,
)
from kernel_oracles import dense_forms

GOLDEN = Path(__file__).parent / "golden"


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
    assert (res.correction == 0.0).all()
    np.testing.assert_allclose(res.k_f, res.k_g, rtol=1e-12)
    np.testing.assert_allclose(res.k_g, -1.0, rtol=1e-9)
    assert res.sign_match.all()


# every Berwald direction the theorem reports: X in case 1, W in case 2
BERWALD = [(rep.case_id, b) for rep in reproduce_theorem() for b in rep.berwald.basis]


def test_theorem_reports_the_berwald_directions():
    assert BERWALD == [(1, fr(1, 0, 0, 0)), (2, fr(0, 0, 0, 1))]


@pytest.mark.parametrize("case_id, direction", BERWALD, ids=["case1-X", "case2-W"])
def test_berwald_directions_give_exact_zero_correction(case_id, direction):
    # A and C vanish identically on a Berwald Q = direction / 2: their
    # monomial lists are empty, so the correction column is exactly 0.0,
    # not a rounding residue
    q = tuple(x / 2 for x in direction)
    r = make_randers(catalog(case_id), identity_metric(4), q)
    compiled = compile_randers(r)
    assert compiled.a.rounded() == [] and compiled.c.rounded() == []
    res = run_sweep(r, n_samples=256, seed=3)
    assert len(res) == 256 and (res.correction == 0.0).all()


def test_sweep_rejects_dimension_one():
    r = make_randers(LieAlgebra.from_brackets(1, ("X",), {}), identity_metric(1), fr(0))
    with deadline(10), pytest.raises(LieRandersError, match="dimension >= 2.*got 1"):
        run_sweep(r, n_samples=2, seed=1)


def oracle_draw(gram, n, seed):
    """(V, U, g(V,V), g(U,U) g(V,V) - g(U,V)^2, candidates drawn) of the
    draw, each g(., .) as einsum("ni,ij,nj->n")."""
    dim = len(gram)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    vs, us, gvs, dets, filled, drawn = [], [], [], [], 0, 0
    while filled < n:
        drawn += n - filled
        v = rng.uniform(-1.0, 1.0, size=(n - filled, dim))
        u = rng.uniform(-1.0, 1.0, size=(n - filled, dim))
        gv = np.einsum("ni,ij,nj->n", v, gram, v)
        gu = np.einsum("ni,ij,nj->n", u, gram, u)
        guv = np.einsum("ni,ij,nj->n", v, gram, u)
        det = gu * gv - guv**2
        good = (gv > 1e-6) & (det > 1e-8)
        vs.append(v[good])
        us.append(u[good])
        gvs.append(gv[good])
        dets.append(det[good])
        filled += int(good.sum())
    return (*map(np.concatenate, (vs, us, gvs, dets)), drawn)


def oracle_wedge(U, V):
    """Rows of w = U^V, w_(ij) = U_i V_j - U_j V_i in combinations order."""
    i, j = zip(*itertools.combinations(range(U.shape[1]), 2))
    return U[:, i] * V[:, j] - U[:, j] * V[:, i]


def small_metric(n):
    """1e-4 I: g(U,U) g(V,V) - g(U,V)^2 = 1e-8 |U^V|^2, so the draw rejects
    about half of its candidates, and keeps them all under the other metrics."""
    return MetricTensor(gram=tuple(
        tuple(Fraction(int(i == j), 10_000) for j in range(n)) for i in range(n)
    ))


DRAW_STRUCTURES = {
    "identity": lambda: make_randers(catalog(2), identity_metric(4), fr(0, 0, "1/2", 0)),
    "dense": lambda: make_randers(catalog(2), dense_metric(4), douglas_q(catalog(2), dense_metric(4))),
    "rejecting": lambda: make_randers(catalog(2), small_metric(4), fr(0, 0, "1/2", 0)),
}


@pytest.mark.parametrize("n", [1, 17, 5000, 100_000])
@pytest.mark.parametrize("metric", DRAW_STRUCTURES)
def test_draw_matches_einsum_oracle(metric, n):
    # both paths of the draw: blocks used as drawn (identity, dense) and
    # compacted blocks joined (rejecting)
    r = DRAW_STRUCTURES[metric]()
    gram = dense_gram(r.metric)
    compiled = compile_randers(r)
    g2, r2 = compiled.g2.rounded(), compiled.r2.rounded()
    dense_g2 = dense_forms(compiled)[1]
    for seed in (0, 7, 2024):
        v, w, gvv, g2w = _draw_flags(gram, g2, n, seed)
        oracle_v, oracle_u, oracle_gvv, oracle_det, drawn = oracle_draw(gram, n, seed)
        if metric == "rejecting":
            assert drawn > n and (n < 5000 or drawn > 1.5 * n)
        else:
            assert drawn == n
        # separate contiguous (dim, n) columns of V and of w
        assert v.flags.c_contiguous and w.flags.c_contiguous and not np.shares_memory(v, w)
        np.testing.assert_array_equal(v.T, oracle_v)
        oracle_w = oracle_wedge(oracle_u, oracle_v)
        np.testing.assert_array_equal(w.T, oracle_w)
        # the summation order differs, so g(V,V) may move by an ulp
        np.testing.assert_allclose(gvv, oracle_gvv, rtol=1e-15, atol=0)
        # G2(w) is the monomial kernel on the oracle's w, the dense G2 as an
        # einsum within rounding, and the Lagrange determinant the oracle
        # rejects on within its cancellation: g(U,U) g(V,V) <= (sum |G_ij|)^2
        oracle_w = np.ascontiguousarray(oracle_w.T)
        np.testing.assert_array_equal(g2w, kernels.form_batch(g2, oracle_w))
        np.testing.assert_allclose(
            g2w, np.einsum("kn,kn->n", oracle_w, dense_g2 @ oracle_w), rtol=1e-12, atol=0
        )
        assert (np.abs(g2w - oracle_det) <= 1e-12 * np.abs(gram).sum() ** 2).all()
        # K^g divides by the G2(w) the rejection tested
        res = run_sweep(r, n, seed)
        np.testing.assert_array_equal(res.v, oracle_v)
        np.testing.assert_array_equal(res.k_g, kernels.sectional_batch(r2, oracle_w, g2w))


def test_sweep_memory_per_flag(structure):
    # tracemalloc counts numpy's buffers: the peak of one 200000-flag sweep,
    # and what its result keeps, V as a view of its columns (4 floats), three
    # float columns and the sign match, 57 B per flag; a V that pinned U, or
    # a view of the drawn candidate block, would keep 32 B per flag more
    n = 200_000
    run_sweep(structure, n_samples=8, seed=11)  # compile memo filled
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run_sweep(structure, n_samples=n, seed=11)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res) == n and res.v.shape == (n, 4)
    assert (peak - base) / n <= 210
    assert (held - base) / n <= 60


def test_sweep_zero_samples_gives_empty_columns(structure):
    res = run_sweep(structure, n_samples=0, seed=1)
    assert len(res) == 0
    assert res.v.shape == (0, 4)
    for col in (res.k_g, res.k_f, res.correction, res.sign_match):
        assert col.shape == (0,)
    assert res.sign_match.dtype == bool


@pytest.mark.parametrize("n_samples", [-1, 1.5, 2.0, True, "8", None])
def test_sweep_rejects_bad_sample_count(structure, n_samples):
    with pytest.raises(LieRandersError, match="n_samples must be a non-negative integer"):
        run_sweep(structure, n_samples=n_samples, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, 1.0, True, 2**64, 2**70, np.float64(1), "1"])
def test_sweep_rejects_bad_seed(structure, seed):
    with pytest.raises(LieRandersError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        run_sweep(structure, n_samples=4, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, np.uint64(2**64 - 1)])
def test_sweep_accepts_full_seed_range(structure, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_sweep(structure, n_samples=4, seed=seed)
    assert len(res) == 4 and np.isfinite(res.k_f).all()


def test_sweep_numpy_integer_sample_count(structure):
    a = run_sweep(structure, n_samples=np.int64(9), seed=3)
    b = run_sweep(structure, n_samples=9, seed=3)
    np.testing.assert_array_equal(a.v, b.v)


def scaled_identity(dim, scale):
    return MetricTensor(gram=tuple(
        tuple(Fraction(scale) * (i == j) for j in range(dim)) for i in range(dim)
    ))


ABELIAN2 = LieAlgebra.from_brackets(2, ("X", "Y"), {})


@pytest.mark.parametrize("algebra, scale, message", [
    # sum |G_ij| = 4e-6 passes g(V,V); its square, 1.6e-11, fails G2(U^V)
    (catalog(2), "1/1000000",
     r"sweep: no drawn flag has G2\(U\^V\) > 1e-08: on \[-1, 1\]\^4, "
     r"G2\(U\^V\) <= \(sum \|G_ij\|\)\^2 = 1/62500000000$"),
    # 1e-4 / 4 I: (sum |G_ij|)^2 = 1e-8 exactly, not above the float 1e-8
    (catalog(2), "1/40000",
     r"G2\(U\^V\) <= \(sum \|G_ij\|\)\^2 = 1/100000000$"),
    (ABELIAN2, "1/10000000",
     r"sweep: no drawn flag has g\(V,V\) > 1e-06: on \[-1, 1\]\^2, "
     r"g\(V,V\) <= sum \|G_ij\| = 1/5000000$"),
])
def test_sweep_that_no_flag_can_pass_raises(algebra, scale, message):
    # the draw would reject every candidate and never end
    r = make_randers(algebra, scaled_identity(algebra.dim, scale), (0,) * algebra.dim)
    with deadline(10), pytest.raises(LieRandersError, match=message):
        run_sweep(r, n_samples=5, seed=1)
    with deadline(10), pytest.raises(LieRandersError, match=message):
        run_sweep(r, n_samples=0, seed=1)


def test_sweep_just_inside_the_bound_draws():
    # (sum |G_ij|)^2 = 4e-8 > 1e-8: G2(U^V) = 2.5e-9 |U^V|^2 passes when
    # |U^V|^2 > 4, which some candidates reach
    r = make_randers(catalog(2), scaled_identity(4, "1/20000"), fr(0, 0, 0, 0))
    with deadline(30):
        res = run_sweep(r, n_samples=2, seed=1)
    assert len(res) == 2 and res.sign_match.all()


def root_bounds(x: Fraction, digits: int = 30) -> tuple[Fraction, Fraction]:
    """(lo, hi), hi - lo = 10**-digits, with lo^2 <= x < hi^2."""
    m = math.isqrt(x.numerator * x.denominator * 10 ** (2 * digits))
    return Fraction(m, x.denominator * 10**digits), Fraction(m + 1, x.denominator * 10**digits)


G2_ROOT_BELOW, G2_ROOT_ABOVE = root_bounds(Fraction(MIN_G2))


@pytest.mark.parametrize("total, fails", [
    (Fraction(MIN_GVV), "g(V,V)"),
    # passes g(V,V); its square, ~1e-12, fails G2(U^V)
    (Fraction(MIN_GVV) + Fraction(1, 10**30), "G2(U^V)"),
    (G2_ROOT_BELOW, "G2(U^V)"),
    (G2_ROOT_ABOVE, None),
], ids=["gvv-at", "gvv-above", "g2-below", "g2-above"])
def test_bound_check_decides_as_the_fractions(total, fails):
    # the check alone: a draw on a metric just above a bound runs for seconds
    assert G2_ROOT_BELOW**2 < Fraction(MIN_G2) < G2_ROOT_ABOVE**2
    assert (total <= MIN_GVV) == (fails == "g(V,V)")
    assert (total * total <= MIN_G2) == (fails is not None)
    metric = scaled_identity(2, total / 2)  # sum |G_ij| = total
    message = {
        "g(V,V)": "sweep: no drawn flag has g(V,V) > 1e-06: "
                  f"on [-1, 1]^2, g(V,V) <= sum |G_ij| = {total}",
        "G2(U^V)": "sweep: no drawn flag has G2(U^V) > 1e-08: "
                   f"on [-1, 1]^2, G2(U^V) <= (sum |G_ij|)^2 = {total * total}",
    }.get(fails)
    if message is None:
        _check_flags_can_pass(metric)
    else:
        with pytest.raises(LieRandersError) as exc:
            _check_flags_can_pass(metric)
        assert str(exc.value) == message


def dense_case2_metric():
    return load_definition(str(GOLDEN / "dense_case2.json")).metric


def spd_metrics():
    # P^T P + I on seeded rational P, dimensions 2-5
    rng = np.random.default_rng(22)
    return [
        spd_metric([random_rational_vector(rng, dim) for _ in range(dim)])
        for dim in (2, 3, 4, 4, 5)
    ]


@pytest.mark.parametrize("metric", [dense_case2_metric(), *spd_metrics()],
                         ids=["dense_case2", *(f"spd{k}" for k in range(5))])
def test_float_gram_is_float_of_each_fraction(metric):
    want = [[float(x).hex() for x in row] for row in metric.gram]
    assert [[x.hex() for x in row] for row in dense_gram(metric).tolist()] == want


@pytest.mark.parametrize("metric", DRAW_STRUCTURES)
def test_second_sweep_is_bit_identical_to_the_first(metric):
    # the first sweep of a fresh metric fills the metric's exact tables, the
    # second reads them
    r = DRAW_STRUCTURES[metric]()
    first = run_sweep(r, n_samples=1000, seed=9)
    second = run_sweep(r, n_samples=1000, seed=9)
    for name in ("v", "k_g", "k_f", "correction", "sign_match"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.tobytes() == b.tobytes() and a.shape == b.shape, name
