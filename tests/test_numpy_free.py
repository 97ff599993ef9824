"""The exact commands run without numpy, and each command loads only the
library modules it runs; only the sweep loads numpy.

Each probe is a fresh interpreter with ``src`` on ``PYTHONPATH``: the test
process itself has numpy and every module loaded already (``conftest``
imports ``lieranders.sweep``).  The probe imports ``lieranders`` and
``lieranders.cli``, runs ``cli.main`` on the golden inputs in turn with
stdout captured, and reports ``"numpy" in sys.modules`` and the
``lieranders`` modules loaded so far, after the imports and after each
command.  The sweep probe shows that the check can see numpy when it is
loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lieranders

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DENSE = "tests/golden/dense_case2.json"
HYPER = "tests/golden/case2_hyper.json"
DENSE_Q = "1/16,0,-1/8,-1/4"

PROBE = r"""
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "lieranders")
import lieranders
package = loaded()
import lieranders.cli
after_import = "numpy" in sys.modules
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = lieranders.cli.main(argv)
        except SystemExit as exc:  # --version exits through argparse
            code = exc.code
    runs.append([code, out.getvalue(), loaded()])
print(json.dumps({"package": package, "after_import": after_import,
                  "after_runs": "numpy" in sys.modules, "runs": runs}))
"""

# (argv, expected stdout): the golden files, as the CI console-script step
EXACT = [
    (["--version"], f"lieranders {lieranders.__version__}\n"),
    (["catalog"], "catalog.txt"),
    (["theorem"], "theorem.txt"),
    (["classify", "--case", "2", "--Q", "0,0,1/2,0"], "classify.txt"),
    (["flag", "--case", "3", "--Q", "1/2,0,0,0", "--V", "1,0,0,0", "--U", "0,1,0,0"],
     "flag.txt"),
    (["check", DENSE], "dense_check.txt"),
    (["classify", "--file", DENSE, "--Q", DENSE_Q], "dense_classify.txt"),
    (["flag", "--file", DENSE, "--Q", DENSE_Q, "--V", "1,0,1,0", "--U", "0,1,0,1"],
     "dense_flag.txt"),
    (["check", HYPER], "hyper_check.txt"),
    (["hyper-verify", HYPER], "hyper_verify.txt"),
]


def probe(argvs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_run_without_numpy():
    got = probe([argv for argv, _ in EXACT])
    for (argv, want), (code, out, _) in zip(EXACT, got["runs"]):
        if want.endswith(".txt"):
            want = (GOLDEN / want).read_text()
        assert (code, out) == (0, want), argv
    assert got["after_import"] is False
    assert got["after_runs"] is False


def test_each_command_loads_only_what_it_runs():
    got = probe([argv for argv, _ in EXACT])
    assert got["package"] == ["lieranders"]
    # the module sets accumulate over the runs, in the order of EXACT
    after = {" ".join(argv[:2]): set(modules)
             for (argv, _), (*_, modules) in zip(EXACT, got["runs"])}
    assert after["--version"] == {"lieranders", "lieranders.cli", "lieranders.errors"}
    unused = {"lieranders.definition", "lieranders.hypercomplex", "lieranders.sweep"}
    for command in ("catalog", "theorem", "classify --case"):
        assert not after[command] & (unused | {"lieranders.flagcurv"}), command
    assert not after["flag --case"] & unused
    assert "lieranders.flagcurv" in after["flag --case"]


STAR = r"""
import importlib, json, sys
import lieranders
namespace = {}
exec("from lieranders import *", namespace)
same = [name for name in lieranders.__all__
        if namespace.get(name) is getattr(
            importlib.import_module("lieranders." + lieranders._HOME[name]), name)]
print(json.dumps({"bound": sorted(set(namespace) - {"__builtins__"}), "same": same}))
"""


def test_star_import_binds_every_exported_name():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", STAR], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(lieranders.__all__) == 43
    assert got["bound"] == sorted(lieranders.__all__)
    assert got["same"] == lieranders.__all__


def test_sweep_loads_numpy():
    got = probe([["sweep", "--case", "2", "--Q", "0,0,1/2,0", "--samples", "3", "--seed", "1"]])
    [(code, out, _)] = got["runs"]
    assert code == 0 and out.splitlines()[-1].endswith("/3")
    assert got["after_import"] is False
    assert got["after_runs"] is True


def test_numpy_imported_at_module_level_only_by_the_sweep_modules():
    importers = []
    for path in sorted((ROOT / "src" / "lieranders").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["kernels.py", "sweep.py"]
