"""CLI subcommands, output format, and exit-code mapping."""

import json
import math
from pathlib import Path

import pytest

from lieranders import LieAlgebra, cli, make_randers, run_sweep
from lieranders.definition import DefinitionFile, save_definition
from lieranders.hypercomplex import ComplexStructureTriple, find_signed_permutation_triples
from lieranders import catalog, identity_metric
from lieranders import exactlinalg as xl

from conftest import deadline, fr


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the whole reports of ``theorem`` and ``catalog``, byte for byte; the CI
# step "Installed console script" diffs the installed script against them
GOLDEN = Path(__file__).resolve().parent / "golden"


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
    from lieranders.classify import expected_theorem_reports

    def perturbed():
        reports = expected_theorem_reports()
        reports[1].berwald = reports[1].douglas  # wrong on purpose
        return reports

    monkeypatch.setattr(cli, "expected_theorem_reports", perturbed)
    code, out, _ = run(["theorem"], capsys)
    assert code == 1
    assert "MISMATCH" in out


def test_classify_non_berwald_douglas(capsys):
    code, out, _ = run(["classify", "--case", "2", "--Q", "0,0,1/2,0"], capsys)
    assert code == 0
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
    assert "K_F         = -0.444444444444" in out
    assert "K_g         = -1" in out


def test_flag_not_douglas_exit_code(capsys):
    code, _, err = run(
        ["flag", "--case", "2", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
        capsys,
    )
    assert code == cli.EXIT_NOT_DOUGLAS
    assert "Douglas" in err


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
@pytest.mark.parametrize("n", [1, cli.CSV_BLOCK, 3 * cli.CSV_BLOCK + 5])
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
            f"# lieranders sweep case 2 --Q {q} --samples {n} --seed 9\n"
            + header + "".join(rows) + f"# sign matches: {matched}/{n}\n"
        )
    assert out == expected


def test_csv_row_template_matches_per_value_format():
    # dim 4; the sign match arrives as a float from the stacked block
    values = (-0.0, 5e-324, 1e16, 1 / 3, math.inf, -math.inf, math.nan)
    for flag in (0.0, 1.0):
        line = cli.csv_row_template(4) % (*values, flag)
        assert line == ",".join(f"{x:.12g}" for x in values) + f",{int(flag)}\n"
    assert line == "-0,4.94065645841e-324,1e+16,0.333333333333,inf,-inf,nan,1\n"


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


def test_check_valid_file(tmp_path, capsys):
    path = tmp_path / "case3.json"
    defn = DefinitionFile(
        algebra=catalog(3),
        metric=identity_metric(4),
        q_field=(xl.as_fraction("1/2"), xl.as_fraction(0), xl.as_fraction(0), xl.as_fraction(0)),
        hypercomplex=find_signed_permutation_triples(catalog(3), identity_metric(4))[0],
        metric_given=True,
    )
    save_definition(defn, path)
    code, out, _ = run(["check", str(path)], capsys)
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
    triple = find_signed_permutation_triples(catalog(0), identity_metric(4))[0]
    good = DefinitionFile(
        algebra=catalog(0), metric=identity_metric(4), q_field=None,
        hypercomplex=triple, metric_given=False,
    )
    path = tmp_path / "good.json"
    save_definition(good, path)
    code, out, _ = run(["hyper-verify", str(path)], capsys)
    assert code == 0
    assert "hypercomplex verification: PASS" in out

    bad = DefinitionFile(
        algebra=catalog(0), metric=identity_metric(4), q_field=None,
        hypercomplex=ComplexStructureTriple(
            j1=triple.j1, j2=triple.j2, j3=xl.mat_scale(-1, triple.j3)
        ),
        metric_given=False,
    )
    path2 = tmp_path / "bad.json"
    save_definition(bad, path2)
    code, out, _ = run(["hyper-verify", str(path2)], capsys)
    assert code == 1
    assert "FAIL" in out

    plain = DefinitionFile(
        algebra=catalog(0), metric=identity_metric(4), q_field=None,
        hypercomplex=None, metric_given=False,
    )
    path3 = tmp_path / "none.json"
    save_definition(plain, path3)
    code, _, err = run(["hyper-verify", str(path3)], capsys)
    assert code == cli.EXIT_DEFINITION


def test_commands_accept_definition_files(tmp_path, capsys):
    defn = DefinitionFile(
        algebra=catalog(2), metric=identity_metric(4), q_field=None,
        hypercomplex=None, metric_given=False,
    )
    path = tmp_path / "case2.json"
    save_definition(defn, path)

    code, out, _ = run(["classify", "--file", str(path), "--Q", "0,0,1/2,0"], capsys)
    assert code == 0
    assert "class: NonBerwaldDouglas" in out

    code, out, _ = run(
        ["sweep", "--file", str(path), "--Q", "0,0,1/2,0", "--samples", "2", "--seed", "4"],
        capsys,
    )
    assert code == 0
    assert str(path) in out.splitlines()[0]

    code, out, _ = run(
        ["flag", "--file", str(path), "--Q", "0,0,0,1/2",
         "--V", "1,0,0,0", "--U", "0,1,0,0"],
        capsys,
    )
    assert code == 0
    assert "K_F" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
