"""CLI subcommands, output format, and exit-code mapping."""

import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lieranders.sweep
from lieranders import LieAlgebra, cli, kernels, make_randers
from lieranders.sweep import SweepResult, run_sweep
from lieranders import catalog, identity_metric

from conftest import QUATERNION_TRIPLE, deadline, fr
from exact_oracles import mat_scale


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the whole reports of ``theorem``, ``catalog``, ``classify --case 2 --Q
# 0,0,1/2,0``, the README ``flag`` example and ``check``/``classify``/``flag``
# on the dense case-2 file, byte for byte; the CI step "Installed console
# script" diffs the installed script against them
GOLDEN = Path(__file__).resolve().parent / "golden"
DENSE = "tests/golden/dense_case2.json"
HYPER = "tests/golden/case2_hyper.json"
TINY = "tests/golden/tiny_metric.json"  # the case-2 algebra under 1e-6 I
NON_LIE_HYPER = "tests/golden/nonlie_hyper.json"  # fails Jacobi, holds a hypercomplex triple
BAD_LABEL = "tests/golden/bad_label.json"  # case 3 with the label "1/2*X" for Y
# case 2 under the indefinite Gram [[0,1],[1,0]] + I: every pivot of an
# elimination that exchanged rows would be 1
INDEFINITE = "tests/golden/indefinite_metric.json"
# a quaternion triple P J P^-1 with fractional entries, hyper-Hermitian for
# G = P^-T P^-1: on the abelian case 0, and on case 4, where J2 and J3 have
# fractional Nijenhuis defects
RATIONAL_HYPER = "tests/golden/rational_hyper.json"
RATIONAL_NONINTEGRABLE = "tests/golden/rational_nonintegrable.json"
DENSE_Q = "1/16,0,-1/8,-1/4"


def test_catalog_lists_all_cases(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / "catalog.txt").read_bytes()
    assert "case 0" in out and "case 4" in out
    assert "derived algebra: span{X, Y}" in out            # case 2
    assert "Douglas Q directions: span{X}" in out          # cases 1, 3, 4
    assert "[Z,W] = 1/2*Y" in out                          # case 4 exact half


def test_theorem_passes(capsys):
    code, out, _ = run(["theorem"], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / "theorem.txt").read_bytes()
    assert "theorem reproduction: PASS" in out
    assert out.count("ok") >= 4
    assert "span{Z, W}" in out and "span{W}" in out


def test_theorem_detects_mismatch(monkeypatch, capsys):
    # negative control: perturb the expected table
    from lieranders import classify
    from lieranders.classify import expected_theorem_reports

    def perturbed():
        reports = expected_theorem_reports()
        reports[1].berwald = reports[1].douglas  # wrong on purpose
        return reports

    monkeypatch.setattr(classify, "expected_theorem_reports", perturbed)
    code, out, _ = run(["theorem"], capsys)
    assert code == 1
    assert "MISMATCH" in out


def test_classify_non_berwald_douglas(capsys):
    code, out, _ = run(["classify", "--case", "2", "--Q", "0,0,1/2,0"], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / "classify.txt").read_bytes()
    assert "class: NonBerwaldDouglas" in out
    assert "|Q|^2 = 1/4" in out


def test_classify_norm_too_large(capsys):
    code, _, err = run(["classify", "--case", "2", "--Q", "0,0,0,2"], capsys)
    assert code == cli.EXIT_NORM
    assert "not Finsler" in err


def test_classify_not_douglas_verdict(capsys):
    code, out, _ = run(["classify", "--case", "2", "--Q", "1/2,0,0,0"], capsys)
    assert code == 0
    assert "class: NotDouglas" in out
    assert "evidence" in out


def test_flag_spot_value(capsys):
    code, out, _ = run(
        ["flag", "--case", "3", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
        capsys,
    )
    assert code == 0
    assert out.encode() == (GOLDEN / "flag.txt").read_bytes()
    assert "K_F         = -0.444444444444" in out
    assert "K_g         = -1" in out


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["check", DENSE], "dense_check.txt"),
        (["classify", "--file", DENSE, "--Q", DENSE_Q], "dense_classify.txt"),
        (
            ["flag", "--file", DENSE, "--Q", DENSE_Q, "--V", "1,0,1,0", "--U", "0,1,0,1"],
            "dense_flag.txt",
        ),
        (["check", HYPER], "hyper_check.txt"),
        (["hyper-verify", HYPER], "hyper_verify.txt"),
    ],
    ids=["check", "classify", "flag", "hyper-check", "hyper-verify"],
)
def test_dense_file_golden(monkeypatch, capsys, argv, golden):
    # a --file space whose metric has a dense inverse, and case 2 with Q and
    # a hypercomplex triple (the Q: and hypercomplex: lines of check); the
    # echo line prints the path as given, so the command runs from the
    # repository root
    monkeypatch.chdir(GOLDEN.parents[1])
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, golden, expected_code",
    [
        (["check", RATIONAL_HYPER], "rational_hyper_check.txt", 0),
        (["hyper-verify", RATIONAL_HYPER], "rational_hyper_verify.txt", 0),
        (["check", RATIONAL_NONINTEGRABLE], "rational_nonintegrable_check.txt", 1),
        (["hyper-verify", RATIONAL_NONINTEGRABLE], "rational_nonintegrable_verify.txt", 1),
    ],
    ids=["pass-check", "pass-hyper-verify", "fail-check", "fail-hyper-verify"],
)
def test_rational_j_golden(monkeypatch, capsys, argv, golden, expected_code):
    # the violation lines print the Nijenhuis defects with their denominators
    monkeypatch.chdir(GOLDEN.parents[1])
    code, out, _ = run(argv, capsys)
    assert code == expected_code
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv", [
    ["classify", "--case", "3", "--Q", "-1/2,0,0,0"],
    ["classify", "--file", DENSE, "--Q", DENSE_Q],
    ["flag", "--case", "3", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
    ["flag", "--file", DENSE, "--Q", DENSE_Q, "--V", "-1,0,1,0", "--U", "0,1,0,1"],
    ["sweep", "--case", "4", "--Q=-9/10,0,0,0", "--samples", "5", "--seed", "3"],
    ["sweep", "--file", DENSE, "--Q", DENSE_Q, "--samples", "5", "--seed", "1"],
], ids=["classify-case", "classify-file", "flag-case", "flag-file", "sweep-case", "sweep-file"])
def test_echo_line_runs_as_the_command(monkeypatch, capsys, argv):
    # the first line, "# lieranders <command>", pasted back gives the same report
    monkeypatch.chdir(GOLDEN.parents[1])
    code, out, _ = run(argv, capsys)
    assert code == 0
    echo = out.splitlines()[0]
    assert shlex.split(echo)[:2] == ["#", "lieranders"]
    assert run(shlex.split(echo)[2:], capsys) == (0, out, "")


def test_echo_line_quotes_a_path_with_spaces(tmp_path, monkeypatch, capsys):
    spaced = tmp_path / "my space"
    spaced.mkdir()
    (spaced / "case 2.json").write_bytes((GOLDEN / "dense_case2.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    argv = ["classify", "--file", "my space/case 2.json", "--Q", DENSE_Q]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[0] == f"# lieranders classify --file 'my space/case 2.json' --Q {DENSE_Q}"
    assert run(shlex.split(out.splitlines()[0])[2:], capsys) == (0, out, "")


def test_flag_not_douglas_exit_code(capsys):
    code, _, err = run(
        ["flag", "--case", "2", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
        capsys,
    )
    assert code == cli.EXIT_NOT_DOUGLAS
    assert err == "error: not of Douglas type: g(Q, X) = 1/2\n"


def test_flag_degenerate_exit_code(capsys):
    code, _, err = run(
        ["flag", "--case", "3", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "2,0,0,0"],
        capsys,
    )
    assert code == cli.EXIT_DEGENERATE


def test_flag_bad_rational_exit_code(capsys):
    code, _, err = run(
        ["flag", "--case", "3", "--Q", "x,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
        capsys,
    )
    assert code == cli.EXIT_DEFINITION


def test_missing_case_and_file(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--Q", "0,0,0,0"])
    assert exc.value.code == cli.EXIT_USAGE


def test_sweep_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "4"])
    assert exc.value.code == cli.EXIT_USAGE


def test_sweep_deterministic_output(capsys):
    argv = ["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "6", "--seed", "3"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("# lieranders sweep")
    header = out1.splitlines()[1]
    assert header == "a,b,c,d,K_g,K_F,correction,sign_match"


def test_sweep_csv_mode(capsys):
    code, out, _ = run(
        ["sweep", "--case", "3", "--Q", "1/2,0,0,0", "--samples", "3", "--seed", "1", "--csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,c,d,K_g,K_F,correction,sign_match"
    assert len(lines) == 4
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def last_digit(x):
    """One unit in the 12th significant digit of ``x``, the last one ``%.12g`` prints."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


SWEEP_GOLDEN = [
    ("sweep_case2.csv",
     ["--case", "2", "--Q", "0,0,1/2,0", "--samples", "2000", "--seed", "7"]),
    ("sweep_dense_case2.csv",
     ["--file", str(GOLDEN / "dense_case2.json"), "--Q", "1/16,0,-1/8,-1/4",
      "--samples", "1000", "--seed", "1"]),
]


def test_sweep_csv_golden(capsys):
    # each golden sweep: the header, the V columns and sign_match byte for
    # byte; K_g, K_F and the correction within 1e-12 of the largest term of
    # the row, plus one unit in the last printed digit, since another BLAS
    # may round them differently
    for name, args in SWEEP_GOLDEN:
        code, out, _ = run(["sweep", *args, "--csv"], capsys)
        assert code == 0, name
        got = out.splitlines(keepends=True)
        want = (GOLDEN / name).read_text().splitlines(keepends=True)
        samples = int(args[args.index("--samples") + 1])
        assert len(got) == len(want) == samples + 1 and got[0] == want[0], name
        for row, (g, w) in enumerate(zip(got[1:], want[1:])):
            g, w = g.split(","), w.split(",")
            assert g[:4] == w[:4] and g[7] == w[7], (name, row)
            got_k, want_k = [float(x) for x in g[4:7]], [float(x) for x in w[4:7]]
            big = max(1.0, *map(abs, got_k + want_k))
            for x, y in zip(got_k, want_k):
                assert abs(x - y) <= 1e-12 * big + last_digit(y), (name, row, g, w)


@pytest.mark.parametrize("argv", [
    ["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "50000", "--seed", "1", "--csv"],
    ["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "50000", "--seed", "1"],
], ids=["csv", "report"])
def test_closed_pipe_exits_quietly(argv):
    # the reader takes one line and closes the pipe while the sweep is still
    # writing, as "| head -1" does: exit 141 with nothing on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "lieranders.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    with deadline(60):
        err = proc.stderr.read()
        code = proc.wait()
    assert first.startswith(b"# lieranders sweep" if "--csv" not in argv else b"a,b,c,d,")
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert err == b"", err.decode()


def reference_rows(structure, n, seed):
    """Sweep rows with every value formatted on its own by ``f"{x:.12g}"``."""
    res = run_sweep(structure, n_samples=n, seed=seed)
    rows = []
    for i in range(len(res)):
        values = [*res.v[i], res.k_g[i], res.k_f[i], res.correction[i]]
        rows.append(
            ",".join(f"{float(x):.12g}" for x in values) + f",{int(res.sign_match[i])}\n"
        )
    return rows, int(res.sign_match.sum())


@pytest.mark.parametrize("csv", [True, False], ids=["csv", "report"])
# a block is CSV_BLOCK // 8 rows of 8 values: one, three and 5 rows
@pytest.mark.parametrize("n", [1, 256, cli.CSV_BLOCK // 8, 773, 3 * cli.CSV_BLOCK // 8 + 5])
def test_sweep_output_matches_per_value_format(capsys, n, csv):
    q = "0,0,1/2,0"
    argv = ["sweep", "--case", "2", "--Q", q, "--samples", str(n), "--seed", "9"]
    code, out, _ = run(argv + ["--csv"] if csv else argv, capsys)
    assert code == 0
    structure = make_randers(catalog(2), identity_metric(4), fr(0, 0, "1/2", 0))
    rows, matched = reference_rows(structure, n, 9)
    header = "a,b,c,d,K_g,K_F,correction,sign_match\n"
    if csv:
        expected = header + "".join(rows)
    else:
        expected = (
            f"# lieranders sweep --case 2 --Q {q} --samples {n} --seed 9\n"
            + header + "".join(rows) + f"# sign matches: {matched}/{n}\n"
        )
    assert out == expected


def test_csv_block_matches_per_value_format():
    # dim 4; the sign match arrives as a float from the stacked block
    values = (-0.0, 5e-324, 1e16, 1 / 3, math.inf, -math.inf, math.nan)
    for flag in (0.0, 1.0):
        line = kernels.format_csv_block(np.array([[*values, flag]])).decode()
        assert line == ",".join(f"{x:.12g}" for x in values) + f",{int(flag)}\n"
    assert line == "-0,4.94065645841e-324,1e+16,0.333333333333,inf,-inf,nan,1\n"


@pytest.mark.parametrize("dim", [2, 4, 26])
@pytest.mark.parametrize("case", ["one-row", "one-block", "partial-last-block"])
def test_write_sweep_rows_matches_per_value_format(case, dim):
    # one row, the first block, and a final partial block, on columns that mix
    # random bits (nan, inf, subnormals, 3-digit exponents) with -0.0 and 1e-5
    rows = cli.CSV_BLOCK // (dim + 4)  # a block's rows
    n = {"one-row": 1, "one-block": rows, "partial-last-block": 2 * rows + 7}[case]
    rng = np.random.default_rng(dim * 10007 + n)
    cols = rng.integers(0, 2**64, (n, dim + 3), dtype=np.uint64).view(np.float64)
    cols[rng.random(cols.shape) < 0.2] = -0.0
    cols[rng.random(cols.shape) < 0.1] = 1e-5
    result = SweepResult(v=cols[:, :dim], k_g=cols[:, dim], k_f=cols[:, dim + 1],
                         correction=cols[:, dim + 2], sign_match=rng.random(n) < 0.5)
    out = io.StringIO()
    cli.write_sweep_rows(result, out)
    want = "".join(
        ",".join(f"{x:.12g}" for x in row) + f",{int(flag)}\n"
        for row, flag in zip(cols.tolist(), result.sign_match)
    )
    assert out.getvalue() == want


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SO3_DOC = {
    "dim": 3,
    "brackets": [
        {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
        {"i": 1, "j": 2, "coeffs": ["1", "0", "0"]},
        {"i": 2, "j": 0, "coeffs": ["0", "1", "0"]},
    ],
}
# e0 acts on span{e1, .., e4} by diag(1, 2, 3, 1/2); Q along e0 is Douglas
DIAG5_DOC = {
    "dim": 5,
    "brackets": [
        {"i": 0, "j": k, "coeffs": ["0"] * k + [c] + ["0"] * (4 - k)}
        for k, c in zip(range(1, 5), ["1", "2", "3", "1/2"])
    ],
}


@pytest.mark.parametrize("csv", [True, False], ids=["csv", "report"])
@pytest.mark.parametrize(
    "doc, q, header",
    [
        (SO3_DOC, "0,0,0", "a,b,c,K_g,K_F,correction,sign_match"),
        (DIAG5_DOC, "2/5,0,0,0,0", "a,b,c,d,e,K_g,K_F,correction,sign_match"),
    ],
    ids=["so3", "diag5"],
)
def test_sweep_header_follows_dimension(tmp_path, capsys, doc, q, header, csv):
    path = write_doc(tmp_path, "space.json", doc)
    argv = ["sweep", "--file", path, "--Q", q, "--samples", "7", "--seed", "2"]
    code, out, _ = run(argv + ["--csv"] if csv else argv, capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 8
    assert {len(line.split(",")) for line in lines} == {doc["dim"] + 4}


def test_sweep_rejects_dimension_over_csv_limit(tmp_path, capsys):
    path = write_doc(tmp_path, "abelian27.json", {"dim": 27, "brackets": []})
    code, out, err = run(
        ["sweep", "--file", path, "--Q", ",".join(["0"] * 27), "--samples", "2", "--seed", "1"],
        capsys,
    )
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert "dimension 27" in err and "26" in err


def test_sweep_rejects_dimension_one(tmp_path, capsys):
    path = write_doc(tmp_path, "one.json", {"dim": 1, "labels": ["X"], "brackets": []})
    with deadline(10):
        code, out, err = run(
            ["sweep", "--file", path, "--Q", "0", "--samples", "2", "--seed", "1"], capsys
        )
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert "dimension >= 2" in err and "got 1" in err


def test_sweep_no_flag_can_pass_exit_code(capsys):
    # 1e-6 I passes ``check``, but G2(U^V) <= (4e-6)^2 < 1e-8 on every
    # candidate, so the draw would never end; the CI step asserts the same
    argv = ["sweep", "--file", TINY, "--Q", "0,0,0,0", "--samples", "5", "--seed", "1"]
    assert run(["check", TINY], capsys)[0] == cli.EXIT_OK
    for extra in ([], ["--csv"]):
        with deadline(10):
            code, out, err = run(argv + extra, capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == (
            "error: sweep: no drawn flag has G2(U^V) > 1e-08: "
            "on [-1, 1]^4, G2(U^V) <= (sum |G_ij|)^2 = 1/62500000000\n"
        )


@pytest.mark.parametrize("samples", ["0", "-3", "x"])
def test_sweep_samples_below_one_is_usage_error(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", samples, "--seed", "1"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x", str(2**64), str(2**70)])
def test_sweep_seed_outside_range_is_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "2", "--seed", seed])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["0", str(2**63), str(2**64 - 1)])
def test_sweep_seed_range_bounds(capsys, seed):
    argv = ["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "2", "--seed", seed, "--csv"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_OK and err == ""
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("token", ["1/0", "x", "1/2/3"])
def test_bad_rational_names_token(capsys, token):
    code, _, err = run(["classify", "--case", "2", "--Q", f"0,{token},0,0"], capsys)
    assert code == cli.EXIT_DEFINITION
    assert err == f"error: --Q: bad rational '{token}'\n"


def test_huge_decimal_exponent_rejected_at_once(tmp_path, capsys):
    # Fraction("1e-9999999") alone builds 10**9999999, in about 10 s
    doc = {"dim": 2, "brackets": [], "Q": ["1e-9999999", "0"]}
    for argv, err in [
        (["classify", "--case", "2", "--Q", "0,0,1e-9999999,0"],
         "error: --Q: bad rational '1e-9999999' (exponent above 4300 in magnitude)\n"),
        (["check", write_doc(tmp_path, "tiny_q.json", doc)],
         "error: Q[0]: bad rational '1e-9999999' (exponent above 4300 in magnitude)\n"),
    ]:
        t0 = time.perf_counter()
        code, out, got = run(argv, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out, got) == (cli.EXIT_DEFINITION, "", err)


@pytest.mark.parametrize("text, err", [
    ('{"dim": 4, "Q": [1%s, 0, 0, 0]}' % ("0" * 5000),
     "error: Q[0]: bad rational '100000000000...0000000000000' (a run of more than 4300 digits)"),
    ('{"dim": 4, "Q": ["0.%s1", "0", "0", "0"]}' % ("0" * 10**6),
     "error: Q[0]: bad rational '0.0000000000...0000000000001' (a run of more than 4300 digits)"),
    ('{"dim": 1%s}' % ("0" * 5000),
     "error: dim: expected a positive integer, got '100000000000...0000000000000'"),
    ('{"dim": 2, "brackets": [{"i": 0, "j": -1%s, "coeffs": [0, 0]}]}' % ("0" * 5000),
     "error: brackets[0].j: '-10000000000...0000000000000' is not an index in 0..1"),
], ids=["json-int", "decimal-digits", "dim", "index"])
def test_over_long_digit_runs_rejected_in_one_short_line(tmp_path, capsys, text, err):
    # json.loads would raise int()'s digit-limit ValueError (exit 7), and
    # Fraction builds 10**1000001 for the decimal before int() refuses it
    path = tmp_path / "long.json"
    path.write_text(text)
    t0 = time.perf_counter()
    code, out, got = run(["check", str(path)], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, got) == (cli.EXIT_DEFINITION, "", err + "\n")
    assert len(got.encode()) < 200


def test_memory_error_is_a_validation_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(lieranders.sweep, "run_sweep", refuse)
    argv = ["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "2", "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == "error: Unable to allocate 745. TiB for an array\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--case", "3", "--Q=-1/2,0,0,0"],
    ["flag", "--case", "3", "--Q=-1/2,0,0,0", "--V=-1,0,0,0", "--U=-0,1,0,0"],
    ["sweep", "--case", "4", "--Q=-9/10,0,0,0", "--samples", "20", "--seed", "3"],
    ["sweep", "--case", "4", "--Q=-9/10,0,0,0", "--samples", "20", "--seed", "3", "--csv"],
    ["classify", "--case", "3", "--Q=-.5,0,0,0"],
    ["flag", "--case", "3", "--Q=1/2,0,0,0", "--V=-.5,1,0,0", "--U=0,1,0,0"],
    ["flag", "--case", "3", "--Q=1/2,0,0,0", "--V=1,0,0,0", "--U=-.5,1,0,0"],
], ids=["classify", "flag", "sweep", "sweep-csv", "Q-decimal", "V-decimal", "U-decimal"])
def test_vector_starting_with_minus(capsys, argv):
    # "--Q -1/2,0,0,0" reads as "--Q=-1/2,0,0,0", so the "--Q -1/2,0,0,0"
    # of the echo line can be pasted back
    spaced = [part for token in argv for part in token.split("=", 1)]
    code, out, err = run(spaced, capsys)
    assert code == cli.EXIT_OK and err == ""
    assert run(argv, capsys) == (code, out, err)
    if "--csv" not in argv:
        assert " ".join(spaced[3:5]) in out.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["classify", "--case", "3", "--Q", "--file", "x"],
    ["classify", "--case", "3", "--Q", "-x"],
    ["flag", "--case", "3", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "--case", "3"],
], ids=["option", "letter", "flag-option"])
def test_vector_option_still_needs_a_value(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "expected one argument" in capsys.readouterr().err


# the brackets of catalog cases 2 and 3
CASE2_BRACKETS = [
    {"i": 0, "j": 2, "coeffs": ["1", "0", "0", "0"]},
    {"i": 0, "j": 3, "coeffs": ["0", "1", "0", "0"]},
    {"i": 1, "j": 2, "coeffs": ["0", "1", "0", "0"]},
    {"i": 1, "j": 3, "coeffs": ["-1", "0", "0", "0"]},
]
CASE3_BRACKETS = [
    {"i": 0, "j": 1, "coeffs": ["0", "1", "0", "0"]},
    {"i": 0, "j": 2, "coeffs": ["0", "0", "1", "0"]},
    {"i": 0, "j": 3, "coeffs": ["0", "0", "0", "1"]},
]


def test_check_valid_file(tmp_path, capsys):
    doc = {
        "dim": 4,
        "labels": ["X", "Y", "Z", "W"],
        "brackets": CASE3_BRACKETS,
        "metric": [[int(i == j) for j in range(4)] for i in range(4)],
        "Q": ["1/2", "0", "0", "0"],
        "hypercomplex": QUATERNION_TRIPLE.matrices(),
    }
    code, out, _ = run(["check", write_doc(tmp_path, "case3.json", doc)], capsys)
    assert code == 0
    assert "jacobi identity: ok" in out
    assert "hypercomplex: ok" in out
    assert "check: PASS" in out


# case 4 with [X,Z] = Z instead of Z/2: Jacobi fails on (X,Z,W) only
NON_JACOBI_DOC = {
    "dim": 4,
    "labels": ["X", "Y", "Z", "W"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": ["0", "1", "0", "0"]},
        {"i": 0, "j": 2, "coeffs": ["0", "0", "1", "0"]},
        {"i": 0, "j": 3, "coeffs": ["0", "0", "0", "1/2"]},
        {"i": 2, "j": 3, "coeffs": ["0", "1/2", "0", "0"]},
    ],
}
NON_JACOBI_REPORT = "jacobi identity: FAIL (1 triple(s))\n  (X,Z,W): defect 1/4*Y\n"


def test_check_corrupted_structure(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", NON_JACOBI_DOC)
    code, out, _ = run(["check", path], capsys)
    assert code == 1
    assert NON_JACOBI_REPORT in out
    assert "check: FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--Q", "1/2,0,0,0"],
        ["flag", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
        ["sweep", "--Q", "1/2,0,0,0", "--samples", "2", "--seed", "1", "--csv"],
    ],
    ids=["classify", "flag", "sweep"],
)
def test_file_failing_jacobi_is_rejected(tmp_path, capsys, argv):
    path = write_doc(tmp_path, "bad.json", NON_JACOBI_DOC)
    code, out, err = run([argv[0], "--file", path, *argv[1:]], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == "error: " + NON_JACOBI_REPORT


def test_hyper_verify_file_failing_jacobi_is_rejected(capsys):
    # [X,W] = Z and [Y,Z] = Z with a signed-permutation triple that passes
    # every hypercomplex axiom: only the Jacobi gate can reject the file
    code, out, _ = run(["check", NON_LIE_HYPER], capsys)
    assert code == 1 and "hypercomplex: ok\n" in out
    code, out, err = run(["hyper-verify", NON_LIE_HYPER], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == "error: jacobi identity: FAIL (1 triple(s))\n  (X,Y,W): defect Z\n"


@pytest.mark.parametrize(
    "labels", [["X", "X", "X", "X"], ["X", "Y", "", "W"]], ids=["repeated", "empty"]
)
def test_check_rejects_ambiguous_labels(tmp_path, capsys, labels):
    # case 3's brackets; classify would print "nabla_X Q = -1/2*X" three times
    doc = {"dim": 4, "labels": labels, "brackets": CASE3_BRACKETS}
    path = write_doc(tmp_path, "labels.json", doc)
    for argv in (["check", path], ["classify", "--file", path, "--Q", "1/2,0,0,0"]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_DEFINITION
        assert out == ""
        assert err == "error: labels: expected 4 distinct non-empty strings\n"


def test_check_rejects_a_label_that_is_not_an_identifier(capsys):
    # evidence would print "1/2*1/2*X" for half the second basis vector
    code, out, err = run(["check", BAD_LABEL], capsys)
    assert code == cli.EXIT_DEFINITION
    assert out == ""
    assert err == "error: labels[1]: '1/2*X' is not an identifier\n"


def test_check_rejects_an_indefinite_metric(capsys):
    code, out, err = run(["check", INDEFINITE], capsys)
    assert code == cli.EXIT_DEFINITION == 3
    assert out == ""
    assert err == "error: metric: gram matrix must be positive definite\n"


def test_case_skips_jacobi_gate(monkeypatch, capsys):
    # the catalog is tested once (test_algebra); a --case sweep must not pay for it
    def refuse(self):
        raise AssertionError("jacobi_check ran on a catalog case")

    monkeypatch.setattr(LieAlgebra, "jacobi_check", refuse)
    code, out, _ = run(
        ["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "2", "--seed", "1", "--csv"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_check_invalid_q_norm(tmp_path, capsys):
    doc = {"dim": 4, "brackets": [], "Q": ["1", "1", "0", "0"]}
    path = tmp_path / "badq.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["check", str(path)], capsys)
    assert code == 1
    assert "Q: FAIL" in out


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"dim": True}, "dim: expected a positive integer, got True"),
        (
            {"dim": 2, "brackets": [{"i": False, "j": True, "coeffs": ["1", "0"]}]},
            "brackets[0].i: False is not an index",
        ),
        (
            {"dim": 2, "brackets": [{"i": 0, "j": True, "coeffs": ["1", "0"]}]},
            "brackets[0].j: True is not an index",
        ),
    ],
    ids=["dim", "i", "j"],
)
def test_check_rejects_json_booleans_as_integers(tmp_path, capsys, doc, field):
    code, out, err = run(["check", write_doc(tmp_path, "bool.json", doc)], capsys)
    assert code == cli.EXIT_DEFINITION
    assert out == ""
    assert err.startswith(f"error: {field}")


@pytest.mark.parametrize(
    "doc, err",
    [
        ([1, 2], "top level must be a JSON object"),
        ({"dim": 2, "brackets": {}}, "brackets: expected a list"),
        ({"dim": 2, "brackets": [3]}, "brackets[0]: expected an object"),
        (
            {"dim": 2, "brackets": [{"i": 0, "j": 0, "coeffs": ["1", "0"]}]},
            "brackets: [e_0, e_0] must vanish",
        ),
        ({"dim": 2, "brackets": [], "metric": [["1", "0"]]}, "metric: expected 2 rows"),
        (None, "--Q: expected 4 comma-separated rationals"),
    ],
    ids=["top-level", "brackets-object", "bracket-entry", "self-bracket", "metric-rows", "q-length"],
)
def test_validation_error_is_one_line_exit_3(tmp_path, capsys, doc, err):
    if doc is None:
        argv = ["classify", "--case", "2", "--Q", "1,2"]
    else:
        argv = ["check", write_doc(tmp_path, "bad.json", doc)]
    assert run(argv, capsys) == (cli.EXIT_DEFINITION, "", f"error: {err}\n")


def test_check_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "syntax.json"
    path.write_text("{")
    code, _, err = run(["check", str(path)], capsys)
    assert code == cli.EXIT_DEFINITION
    assert "line" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--file", "{path}", "--Q", "0,0,1/2,0"],
        ["flag", "--file", "{path}", "--Q", "0,0,1/2,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
        ["sweep", "--file", "{path}", "--Q", "0,0,1/2,0", "--samples", "2", "--seed", "1"],
        ["check", "{path}"],
        ["hyper-verify", "{path}"],
    ],
    ids=["classify", "flag", "sweep", "check", "hyper-verify"],
)
@pytest.mark.parametrize("target", ["missing", "directory", "not-utf8"])
def test_unreadable_definition_file_exits_3(tmp_path, capsys, argv, target):
    path = tmp_path / "space.json"
    if target == "directory":
        path.mkdir()
    elif target == "not-utf8":
        path.write_bytes(b'\xff{"dim": 4}')
    code, out, err = run([a.replace("{path}", str(path)) for a in argv], capsys)
    assert code == cli.EXIT_DEFINITION
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_hyper_verify_pass_and_fail(tmp_path, capsys):
    # the abelian case 0 under the identity metric
    j1, j2, j3 = QUATERNION_TRIPLE.matrices()
    good = {"dim": 4, "hypercomplex": [j1, j2, j3]}
    code, out, _ = run(["hyper-verify", write_doc(tmp_path, "good.json", good)], capsys)
    assert code == 0
    assert "hypercomplex verification: PASS" in out

    bad = {"dim": 4, "hypercomplex": [j1, j2, mat_scale(-1, j3)]}
    code, out, _ = run(["hyper-verify", write_doc(tmp_path, "bad.json", bad)], capsys)
    assert code == 1
    assert "FAIL" in out

    code, _, err = run(["hyper-verify", write_doc(tmp_path, "none.json", {"dim": 4})], capsys)
    assert code == cli.EXIT_DEFINITION


def test_commands_accept_definition_files(tmp_path, capsys):
    doc = {"dim": 4, "labels": ["X", "Y", "Z", "W"], "brackets": CASE2_BRACKETS}
    path = write_doc(tmp_path, "case2.json", doc)

    code, out, _ = run(["classify", "--file", path, "--Q", "0,0,1/2,0"], capsys)
    assert code == 0
    assert "class: NonBerwaldDouglas" in out

    code, out, _ = run(
        ["sweep", "--file", path, "--Q", "0,0,1/2,0", "--samples", "2", "--seed", "4"],
        capsys,
    )
    assert code == 0
    assert path in out.splitlines()[0]

    code, out, _ = run(
        ["flag", "--file", path, "--Q", "0,0,0,1/2",
         "--V", "1,0,0,0", "--U", "0,1,0,0"],
        capsys,
    )
    assert code == 0
    assert "K_F" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
