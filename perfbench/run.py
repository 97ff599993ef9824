#!/usr/bin/env python3
"""lieranders benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a lieranders checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in a fresh process, and
ends with one JSON object whose metric names are ``<workload>:<metric>``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are the ``per_layer`` ones, from a run
whose first half is untraced and second half traced (their difference per op
is ``trace.overhead_s``).  The line before it records the environment.
Failed ops (exceptions, a nonzero exit, failed output checks) are counted in
``failed`` and make the exit code 1.  The program is imported from ``src``
of the checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def import_library() -> None:
    package = SRC / "lieranders"
    if not (package / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {package} or {SPEC} is missing; run from the root of a "
              "lieranders checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lieranders

    if Path(lieranders.__file__).resolve().parent != package.resolve():
        print(f"error: lieranders imported from {lieranders.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def git_commit() -> str | None:
    """HEAD of the checkout, or None if it is not a git repository."""
    if not (ROOT / ".git").exists():  # git would look above the checkout
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lieranders").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy

    from lieranders import kernels

    backend = getattr(kernels, "active_backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": backend() if backend else None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def measure(args) -> tuple[dict, int, int, dict]:
    """Run one workload; returns (metrics, attempted, failed, extra)."""
    import tracer as tr
    import workloads

    work = workloads.build(args.workload, args.seed)
    extra: dict = {"flags_per_sweep": getattr(work, "n", None)}
    if not args.trace:
        phase = work.measure(args.seconds, trace=False, setup=True)
        # The median probe, not the fastest: a fresh process is short, and on
        # a shared machine the fastest of ten varied more between runs.
        setup_s = statistics.median(phase.setup_times)
        per_unit = phase.seconds_per_op() / (work.n if work.units == "flags" else 1)
        metrics = {
            "ops_per_s": (1.0 / per_unit, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
        }
        extra.update(ops_timed=phase.ops, setup_probes_s=phase.setup_times)
        if hasattr(work, "class_rates"):
            extra["class_ops_per_s"] = work.class_rates(phase)
        return metrics, phase.attempted, phase.failed, extra | {"errors": phase.errors}

    base = work.measure(args.seconds / 2, trace=False)
    phase = work.measure(args.seconds / 2, trace=True)
    snap = phase.snapshot
    ops = phase.ops
    by_scope = work.ops_by_family(phase) if hasattr(work, "ops_by_family") else {"": ops}
    metrics = tr.layer_metrics(snap, by_scope)
    main = sum(st["self_s"] for _, name, st in snap["stats"] if name == "cli.main")
    metrics["cli.main.self_s"] = (main / ops, "s")
    # Calls per second of each class of the exact mix, from the untraced half.
    rates = work.class_rates(base) if hasattr(work, "class_rates") else {}
    for kind in workloads.KINDS:
        for family in workloads.FAMILIES:
            metrics[f"{kind}_per_s.{family}"] = (rates.get(f"{kind}.{family}", 0.0), "1/s")
    metrics["cli.bytes_out"] = (getattr(work, "bytes_out", 0) / ops, "B")
    metrics["trace.overhead_s"] = (phase.seconds_per_op() - base.seconds_per_op(), "s")
    extra.update(ops_traced=ops, absent=snap["absent"], patched=snap["sites"],
                 errors=base.errors + phase.errors)
    return (metrics, base.attempted + phase.attempted, base.failed + phase.failed, extra)


def run_one(args, spec: dict) -> int:
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, attempted, failed, extra = measure(args)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    absent = extra.get("absent", [])
    stray = [name for name in missing
             if not any(name.startswith(target + ".") for target in absent)]
    if unknown or stray:
        raise SystemExit(f"error: metrics out of step with BENCHMARK.json: "
                         f"undeclared {unknown}, not produced {stray}")
    metrics = {m["name"]: metrics[m["name"]] for m in declared if m["name"] in metrics}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<22} {name:<44} {value:.6g} {unit}")
    print(f"{args.workload:<22} {'error_rate':<44} {failed / attempted:.6g} "
          f"({failed} of {attempted} ops failed)")
    for message in extra.pop("errors"):
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({"environment": environment(args), **extra}))
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh process; one combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return code


def main() -> int:
    import_library()
    import workloads

    spec = json.loads(SPEC.read_text())
    names = workloads.names()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
