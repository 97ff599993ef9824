"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines on stdout.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from lieranders import (
    Flag,
    LieAlgebra,
    RandersClass,
    catalog,
    classify_randers,
    flag_curvature_deng_hou,
    flag_curvature_simplified,
    identity_metric,
    make_randers,
    sectional_curvature,
    sign_analysis,
)
from lieranders import cli
from lieranders import exactlinalg as xl
from lieranders.classify import expected_theorem_reports, reproduce_theorem
from lieranders.errors import NormTooLarge
from lieranders.hypercomplex import (
    ComplexStructureTriple,
    find_signed_permutation_triples,
    verify_hyper_hermitian,
    verify_hypercomplex,
)
from lieranders.randers import fundamental_tensor
from lieranders.riemann import ad_star, curvature_tensor, levi_civita
from lieranders.sampling import (
    make_rng,
    random_flag_pair,
    random_q_in_subspace,
    random_rational_vector,
    sphere_directions,
)
from lieranders.classify import douglas_subspace

from conftest import fr
from flag_oracles import flag_curvature_case, oracle_flag_curvature_simplified

METRIC = identity_metric(4)
X, Y, Z, W = (fr(*[1 if k == i else 0 for k in range(4)]) for i in range(4))


def report(number: int, detail: str) -> None:
    print(f"[criterion {number}] PASS: {detail}")


def test_criterion_1_theorem_reproduction():
    start = time.perf_counter()
    computed = reproduce_theorem()
    expected = expected_theorem_reports()
    for got, want in zip(computed, expected):
        assert got.case_id == want.case_id
        assert got.douglas == want.douglas, f"case {got.case_id} Douglas subspace"
        assert got.berwald == want.berwald, f"case {got.case_id} Berwald subset"
    assert cli.main(["theorem"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"theorem reproduction took {elapsed:.3f}s"
    report(1, f"all four case reports exact, {elapsed * 1000:.0f} ms")


def test_criterion_2_intermediate_identities():
    rng = make_rng(202)
    checked = 0
    for _ in range(200):
        p, q = (random_rational_vector(rng, 2, 6, 4))
        a, b, c, d = random_rational_vector(rng, 4, 6, 4)
        v = (a, b, c, d)

        # family (i): algebra case 2, Q = pZ + qW
        alg = catalog(2)
        qvec = (Fraction(0), Fraction(0), p, q)
        qv = alg.bracket(qvec, v)
        s = a * a + b * b
        assert METRIC.inner(qv, v) == -p * s
        assert METRIC.inner(alg.bracket(qv, v), v) == s * (d * q - c * p)
        advv = xl.mat_vec(ad_star(alg, METRIC, v), v)
        assert METRIC.inner(v, alg.bracket(qvec, advv)) == s * (d * q + c * p)

        # family (ii): algebra case 3, Q = qX
        alg = catalog(3)
        qvec = (q, Fraction(0), Fraction(0), Fraction(0))
        qv = alg.bracket(qvec, v)
        s = b * b + c * c + d * d
        assert METRIC.inner(qv, v) == q * s
        assert METRIC.inner(alg.bracket(qv, v), v) == -a * q * s
        advv = xl.mat_vec(ad_star(alg, METRIC, v), v)
        assert METRIC.inner(v, alg.bracket(qvec, advv)) == a * q * s

        # family (iii): algebra case 4, Q = qX
        alg = catalog(4)
        qv = alg.bracket(qvec, v)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert METRIC.inner(qv, v) == q * (b * b + half * c * c + half * d * d)
        assert METRIC.inner(alg.bracket(qv, v), v) == -a * q * (
            b * b + quarter * c * c + quarter * d * d
        )
        advv = xl.mat_vec(ad_star(alg, METRIC, v), v)
        assert METRIC.inner(v, alg.bracket(qvec, advv)) == a * q * (
            b * b + quarter * c * c + quarter * d * d
        )
        checked += 1
    assert checked == 200
    report(2, "three bracket inner products exact at 200 rational points per family")


def test_criterion_3_formula_equivalence():
    start = time.perf_counter()
    worst = 0.0
    per_case = 1000
    for cid in (2, 3, 4):
        alg = catalog(cid)
        douglas = douglas_subspace(alg, METRIC)
        table = curvature_tensor(alg, levi_civita(alg, METRIC))
        rng = make_rng(303, stream=cid)
        for _ in range(per_case):
            qvec = random_q_in_subspace(rng, douglas, METRIC)
            r = make_randers(alg, METRIC, qvec)
            v, u = random_flag_pair(rng, 4)
            flag = Flag(v=v, u=u)
            r1 = flag_curvature_deng_hou(r, flag)
            r2 = flag_curvature_simplified(r, flag, curvature=table)  # compiled
            r3 = oracle_flag_curvature_simplified(r, flag, curvature=table)
            p, qq = (float(qvec[2]), float(qvec[3])) if cid == 2 else (0.0, float(qvec[0]))
            k3 = flag_curvature_case(cid, p, qq, *[float(x) for x in v], k_g=r2.k_g)
            ks = (r1.k_f, r2.k_f, r3.k_f, k3)
            scale = max(1.0, *map(abs, ks))
            worst = max(worst, *(abs(x - y) / scale for x, y in itertools.combinations(ks, 2)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst relative disagreement {worst:.3e}"
    assert elapsed < 10.0, f"formula equivalence took {elapsed:.2f}s"
    report(
        3,
        f"compiled, Deng-Hou, bracket and closed-form routes agree on 1000 flags per case "
        f"(worst rel {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_4_riemannian_reduction_and_homogeneity():
    zero_q = fr(0, 0, 0, 0)
    rng = make_rng(404)
    for cid in range(5):
        alg = catalog(cid)
        r = make_randers(alg, METRIC, zero_q)
        for _ in range(40):
            v, u = random_flag_pair(rng, 4)
            res = flag_curvature_deng_hou(r, Flag(v=v, u=u))
            assert abs(res.k_f - res.k_g) <= 1e-12 * abs(res.k_g)

    # pole homogeneity with a genuinely non-Riemannian structure
    for cid, qvec in ((2, fr(0, 0, "1/2", "1/4")), (3, fr("1/2", 0, 0, 0)), (4, fr("2/5", 0, 0, 0))):
        alg = catalog(cid)
        table = curvature_tensor(alg, levi_civita(alg, METRIC))
        r = make_randers(alg, METRIC, qvec)
        for _ in range(25):
            v, u = random_flag_pair(rng, 4)
            base = flag_curvature_simplified(r, Flag(v=v, u=u), curvature=table)
            for lam in (Fraction(1, 2), Fraction(2), Fraction(10)):
                res = flag_curvature_simplified(
                    r, Flag(v=xl.vec_scale(lam, v), u=u), curvature=table
                )
                # floor guards cancellation noise when k_f itself is tiny
                assert abs(res.k_f - base.k_f) <= 1e-12 * max(1.0, abs(base.k_f))
    report(4, "Q=0 reduction at 1e-12 relative; pole scale invariance for 1/2, 2, 10")


def test_criterion_5_sectional_curvature_oracles():
    # case 3: constant -1 on 100 exact sampled planes
    alg = catalog(3)
    rng = make_rng(505)
    found = 0
    while found < 100:
        u = random_rational_vector(rng, 4)
        v = random_rational_vector(rng, 4)
        if xl.rank([u, v]) != 2:
            continue
        assert sectional_curvature(alg, METRIC, u, v) == Fraction(-1)
        found += 1

    # case 1: K(Y,Z) = 1/4 and X-planes flat
    alg = catalog(1)
    assert sectional_curvature(alg, METRIC, Y, Z) == Fraction(1, 4)
    for e in (Y, Z, W):
        assert sectional_curvature(alg, METRIC, X, e) == 0
    for _ in range(25):
        v = random_rational_vector(rng, 4)
        if xl.rank([X, v]) != 2:
            continue
        assert sectional_curvature(alg, METRIC, X, v) == 0

    # abelian: flat
    alg = catalog(0)
    for _ in range(20):
        u, v = random_flag_pair(rng, 4)
        assert sectional_curvature(alg, METRIC, u, v) == 0

    # connection and curvature identities, exactly, on every catalog case
    for cid in range(5):
        alg = catalog(cid)
        conn = levi_civita(alg, METRIC)
        e = alg.basis()
        for i in range(4):
            for j in range(4):
                assert xl.vec_sub(conn.gamma[i][j], conn.gamma[j][i]) == alg.structure[i][j]
                for k in range(4):
                    assert (
                        METRIC.inner(conn.gamma[i][j], e[k])
                        + METRIC.inner(e[j], conn.gamma[i][k])
                        == 0
                    )
        table = curvature_tensor(alg, conn)
        for _ in range(5):
            u = random_rational_vector(rng, 4)
            v = random_rational_vector(rng, 4)
            w = random_rational_vector(rng, 4)
            s = random_rational_vector(rng, 4)
            assert table.of(u, v, w) == xl.vec_scale(-1, table.of(v, u, w))
            bianchi = xl.vec_add(
                xl.vec_add(table.of(u, v, w), table.of(v, w, u)), table.of(w, u, v)
            )
            assert xl.vec_is_zero(bianchi)
            assert METRIC.inner(table.of(u, v, w), s) == METRIC.inner(table.of(w, s, u), v)
    report(5, "sectional oracles and all connection/curvature identities exact")


def test_criterion_6_sign_corollary():
    configs = [
        (2, fr(0, 0, "1/2", 0)),
        (3, fr("1/2", 0, 0, 0)),
        (4, fr("1/2", 0, 0, 0)),
    ]
    for cid, qvec in configs:
        r = make_randers(catalog(cid), METRIC, qvec)
        rep = sign_analysis(r, n_samples=100, seed=606)
        assert rep.ok, f"case {cid}: {len(rep.counterexamples)} counterexamples"
        assert len(rep.samples) == 100
        for s in rep.samples:
            assert abs(s.correction) <= 1e-12 * max(1.0, abs(s.k_f), abs(s.k_g))
            assert s.sign_match
    report(6, "correction vanishes and signs agree on 100 corollary flags per family")


def test_criterion_7_finsler_validity():
    norms = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))
    dirs = sphere_directions(100, 4, seed=707)
    for cid in range(5):
        alg = catalog(cid)
        for t in norms:
            r = make_randers(alg, METRIC, (t, Fraction(0), Fraction(0), Fraction(0)))
            assert r.norm_q_squared == t * t
            for y in dirs:
                g = fundamental_tensor(r, y)
                assert np.linalg.eigvalsh(g)[0] > 0.0
    with pytest.raises(NormTooLarge):
        make_randers(catalog(0), METRIC, X)
    with pytest.raises(NormTooLarge):
        make_randers(catalog(0), METRIC, fr(1, 1, 0, 0))
    report(
        7,
        "fundamental tensor positive definite on 100 directions for "
        "|Q|^2 in {0.01, 0.25, 0.81, 0.9801} on every case; |Q| >= 1 rejected",
    )


def test_criterion_8_hypercomplex_verification():
    for cid in (0, 3):
        alg = catalog(cid)
        triples = find_signed_permutation_triples(alg, METRIC)
        assert triples, f"no signed-permutation triple found for case {cid}"
        triple = triples[0]
        rep = verify_hypercomplex(alg, triple)
        assert rep.ok and not rep.violations
        assert verify_hyper_hermitian(METRIC, triple).ok
        # redundant quaternion relations, derivable from the axioms
        assert xl.mat_mul(triple.j2, triple.j3) == triple.j1
        assert xl.mat_mul(triple.j3, triple.j1) == triple.j2

    corrupted = ComplexStructureTriple(
        j1=triples[0].j1, j2=triples[0].j2, j3=xl.mat_scale(-1, triples[0].j3)
    )
    rep = verify_hypercomplex(catalog(3), corrupted)
    assert not rep.ok
    assert not rep.quaternion_ok
    assert any("J1 J2" in v for v in rep.violations)
    report(8, "search-found triples pass all axioms; corrupted triple diagnosed")


def test_criterion_9_negative_controls():
    # structure-constant corruption that genuinely breaks Jacobi on (X, Z, W)
    bad = LieAlgebra.from_brackets(
        4,
        ("X", "Y", "Z", "W"),
        {
            (0, 1): fr(0, 1, 0, 0),
            (0, 2): fr(0, 0, 1, 0),  # should be 1/2
            (0, 3): fr(0, 0, 0, "1/2"),
            (2, 3): fr(0, "1/2", 0, 0),
        },
    )
    violations = bad.jacobi_check()
    assert violations
    assert (0, 2, 3) in [(i, j, k) for i, j, k, _ in violations]

    r = make_randers(catalog(2), METRIC, fr("1/2", 0, 0, 0))
    result = classify_randers(r)
    assert result.kind is RandersClass.NOT_DOUGLAS
    assert result.evidence and "1/2" in result.evidence[0]
    report(9, "corrupted constants fail Jacobi; case-2 Q=X/2 is NotDouglas with evidence")
