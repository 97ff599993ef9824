"""Command-line front end.

Subcommands: catalog, check, classify, theorem, flag, sweep, hyper-verify.
Rational inputs are comma lists of "p/q" strings; floats are printed with 12
significant digits (``%.12g``), the sweep's rows a block at a time by the
numpy kernel ``kernels.format_csv_block``, in the same bytes.  Reports carry
no timestamps, so output is byte-identical for fixed inputs and seed.

Each handler imports the library modules it uses, so a command loads only
what it runs.  ``--version`` loads ``errors`` alone.  ``catalog``,
``theorem`` and ``classify --case`` load ``algebra``, ``exactlinalg``,
``riemann``, ``randers`` and ``classify``; ``flag`` adds ``flagcurv``.
``check`` and ``hyper-verify`` load ``definition``, ``hypercomplex``,
``algebra``, ``exactlinalg`` and ``riemann``, and ``--file`` adds
``definition`` and ``hypercomplex`` to a command.  Only the sweep path
(``cmd_sweep``, ``write_sweep_rows`` and the ``--seed`` type) imports
:mod:`lieranders.sweep` and ``kernels``, and through them numpy; every other
command runs without numpy.

Exit codes: 0 success, 1 failed verification, 2 usage (among them a
``--samples`` below 1 or a ``--seed`` outside [0, 2**64)), 3 bad definition or
argument parse (among them a rational with a decimal exponent above 4300 in
magnitude, and a literal, a definition file's JSON integer too, with a run of
more than 4300 digits, quoted by a short excerpt), 4 invalid Randers norm,
5 not Douglas type, 6 degenerate flag/plane, 7 other validation error (among
them a ``--file`` or ``hyper-verify`` algebra that fails the Jacobi identity,
and memory exhausted, as by a sweep too large to allocate), 141
(128 + SIGPIPE), silently, on a closed stdout.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from . import __version__
from .errors import (
    DefinitionError,
    DegeneratePlane,
    DimensionMismatch,
    LieRandersError,
    NormTooLarge,
    NotDouglas,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEFINITION = 3
EXIT_NORM = 4
EXIT_NOT_DOUGLAS = 5
EXIT_DEGENERATE = 6
EXIT_VALIDATION = 7
EXIT_BROKEN_PIPE = 141

# Sweep values per format_csv_block call (512 rows of dim 4), written block by
# block, so peak memory does not grow with the flags; 2048 to 6144 values format
# about equally fast, larger blocks can page-fault their buffers in each time.
CSV_BLOCK = 4096
# Sweep coordinate columns are named a, b, c, ... by position.
CSV_COORDS = "abcdefghijklmnopqrstuvwxyz"


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def parse_rationals(text: str, dim: int, what: str) -> tuple:
    from .exactlinalg import parse_rational

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise DefinitionError(f"{what}: expected {dim} comma-separated rationals")
    return tuple(parse_rational(p, what) for p in parts)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A ``--seed``: an integer in [0, 2**64), the range ``run_sweep`` keys
    its Philox stream with."""
    from .sweep import _check_seed

    try:
        return _check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    except LieRandersError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _echo(args_list: list[str]) -> str:
    """The report's first line: the command, shell-quoted so that it can be
    pasted back."""
    return "# lieranders " + shlex.join(args_list)


def jacobi_lines(algebra, violations) -> list[str]:
    """The Jacobi verdict of ``check``, then one line per defect triple."""
    from .algebra import format_combination

    if not violations:
        return ["jacobi identity: ok"]
    labels = algebra.labels
    return [f"jacobi identity: FAIL ({len(violations)} triple(s))"] + [
        f"  ({labels[i]},{labels[j]},{labels[k]}): defect {format_combination(defect, labels)}"
        for i, j, k, defect in violations
    ]


def _load_lie_definition(path):
    """The definition file at ``path``; LieRandersError, naming each defect
    triple as ``check`` does, unless its algebra satisfies Jacobi."""
    from .definition import load_definition

    defn = load_definition(path)
    violations = defn.algebra.jacobi_check()
    if violations:
        raise LieRandersError("\n".join(jacobi_lines(defn.algebra, violations)))
    return defn


def _load_space(args) -> tuple:
    """(algebra, metric, option) of ``--file``, which must satisfy Jacobi,
    else of catalog ``--case``, with the option that names it (``--file
    PATH`` or ``--case N``) for the echo line."""
    from .algebra import catalog
    from .riemann import identity_metric

    if args.file:
        defn = _load_lie_definition(args.file)
        return defn.algebra, defn.metric, ["--file", args.file]
    algebra = catalog(args.case)
    return algebra, identity_metric(algebra.dim), ["--case", str(args.case)]


def cmd_catalog(args, out) -> int:
    from .algebra import catalog
    from .classify import douglas_subspace
    from .riemann import identity_metric

    print(_echo(["catalog"]), file=out)
    for case_id in range(5):
        algebra = catalog(case_id)
        metric = identity_metric(algebra.dim)
        brackets = algebra.describe_brackets() or ["abelian"]
        print(f"case {case_id}:", file=out)
        print(f"  brackets: {'; '.join(brackets)}", file=out)
        print(
            f"  derived algebra: {algebra.derived_algebra().describe(algebra.labels)}",
            file=out,
        )
        print(
            "  Douglas Q directions: "
            f"{douglas_subspace(algebra, metric).describe(algebra.labels)}",
            file=out,
        )
    return EXIT_OK


def cmd_theorem(args, out) -> int:
    from .algebra import catalog
    from .classify import expected_theorem_reports, reproduce_theorem

    print(_echo(["theorem"]), file=out)
    expected = expected_theorem_reports()
    computed = reproduce_theorem()
    failures = 0
    for exp, got in zip(expected, computed):
        labels = catalog(exp.case_id).labels
        ok = exp.douglas == got.douglas and exp.berwald == got.berwald
        status = "ok" if ok else "MISMATCH"
        print(f"case {exp.case_id}: {status}", file=out)
        print(
            f"  Douglas  expected {exp.douglas.describe(labels)}"
            f"  computed {got.douglas.describe(labels)}",
            file=out,
        )
        print(
            f"  Berwald  expected {exp.berwald.describe(labels)}"
            f"  computed {got.berwald.describe(labels)}",
            file=out,
        )
        if not ok:
            failures += 1
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} case(s) differ)"
    print(f"theorem reproduction: {verdict}", file=out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_classify(args, out) -> int:
    from .classify import classify_randers
    from .randers import make_randers

    algebra, metric, source = _load_space(args)
    q = parse_rationals(args.q, algebra.dim, "--Q")
    structure = make_randers(algebra, metric, q)
    result = classify_randers(structure)
    print(_echo(["classify", *source, "--Q", args.q]), file=out)
    print(f"class: {result.kind.value}", file=out)
    print(f"|Q|^2 = {structure.norm_q_squared}", file=out)
    for line in result.evidence:
        print(f"  evidence: {line}", file=out)
    return EXIT_OK


def cmd_flag(args, out) -> int:
    from .flagcurv import Flag, compile_randers
    from .randers import make_randers

    algebra, metric, source = _load_space(args)
    q = parse_rationals(args.q, algebra.dim, "--Q")
    v = parse_rationals(args.v, algebra.dim, "--V")
    u = parse_rationals(args.u, algebra.dim, "--U")
    structure = make_randers(algebra, metric, q)
    result = compile_randers(structure).flag(Flag(v=v, u=u))
    print(
        _echo(["flag", *source, "--Q", args.q, "--V", args.v, "--U", args.u]),
        file=out,
    )
    print(f"F(V)        = {fmt(result.f_value)}", file=out)
    print(f"K_g         = {fmt(result.k_g)}", file=out)
    print(f"K_F         = {fmt(result.k_f)}", file=out)
    print(f"correction  = {fmt(result.correction)}", file=out)
    return EXIT_OK


def write_sweep_rows(result, out) -> None:
    """Write one CSV row per flag, about ``CSV_BLOCK`` values at a time, each
    block formatted by :func:`lieranders.kernels.format_csv_block`: the bytes
    of formatting each value on its own with ``%.12g``."""
    import numpy as np

    from .kernels import format_csv_block

    rows = CSV_BLOCK // (result.v.shape[1] + 4)
    for start in range(0, len(result), rows):
        part = slice(start, start + rows)
        block = np.column_stack((
            result.v[part], result.k_g[part], result.k_f[part],
            result.correction[part], result.sign_match[part],
        ))
        out.write(format_csv_block(block).decode("ascii"))


def cmd_sweep(args, out) -> int:
    from .randers import make_randers
    from .sweep import run_sweep

    algebra, metric, source = _load_space(args)
    if algebra.dim > len(CSV_COORDS):
        raise LieRandersError(
            f"sweep: dimension {algebra.dim} exceeds the CSV limit of "
            f"{len(CSV_COORDS)} coordinate columns (a..z)"
        )
    q = parse_rationals(args.q, algebra.dim, "--Q")
    structure = make_randers(algebra, metric, q)
    result = run_sweep(structure, n_samples=args.samples, seed=args.seed)
    if not args.csv:
        print(_echo([
            "sweep", *source, "--Q", args.q,
            "--samples", str(args.samples), "--seed", str(args.seed),
        ]), file=out)
    header = [*CSV_COORDS[: algebra.dim], "K_g", "K_F", "correction", "sign_match"]
    print(",".join(header), file=out)
    write_sweep_rows(result, out)
    matched = int(result.sign_match.sum())
    if not args.csv:
        print(f"# sign matches: {matched}/{len(result)}", file=out)
    return EXIT_OK


def cmd_check(args, out) -> int:
    from .definition import load_definition
    from .hypercomplex import verify_hyper_hermitian, verify_hypercomplex

    defn = load_definition(args.file)
    print(_echo(["check", args.file]), file=out)
    failures = 0

    violations = defn.algebra.jacobi_check()
    if violations:
        failures += 1
    print("\n".join(jacobi_lines(defn.algebra, violations)), file=out)

    print("metric: ok (symmetric positive definite)", file=out)

    if defn.q_field is not None:
        norm_sq = defn.metric.inner(defn.q_field, defn.q_field)
        if norm_sq < 1:
            print(f"Q: ok (|Q|^2 = {norm_sq} < 1)", file=out)
        else:
            failures += 1
            print(f"Q: FAIL (|Q|^2 = {norm_sq} >= 1)", file=out)

    if defn.hypercomplex is not None:
        report = verify_hypercomplex(defn.algebra, defn.hypercomplex)
        hermitian = verify_hyper_hermitian(defn.metric, defn.hypercomplex)
        if report.ok and hermitian.ok:
            print("hypercomplex: ok", file=out)
        else:
            failures += 1
            print("hypercomplex: FAIL", file=out)
            for line in report.violations + hermitian.violations:
                print(f"  {line}", file=out)

    print("check: " + ("PASS" if failures == 0 else "FAIL"), file=out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_hyper_verify(args, out) -> int:
    from .hypercomplex import verify_hyper_hermitian, verify_hypercomplex

    defn = _load_lie_definition(args.file)
    print(_echo(["hyper-verify", args.file]), file=out)
    if defn.hypercomplex is None:
        raise DefinitionError("file has no 'hypercomplex' section")
    report = verify_hypercomplex(defn.algebra, defn.hypercomplex)
    hermitian = verify_hyper_hermitian(defn.metric, defn.hypercomplex)
    print(f"quaternion relations (J1 J2 = J3 = -J2 J1): {'ok' if report.quaternion_ok else 'FAIL'}", file=out)
    for idx in range(3):
        print(
            f"J{idx + 1}: square {'ok' if report.squares_ok[idx] else 'FAIL'}, "
            f"integrable {'ok' if report.integrable[idx] else 'FAIL'}, "
            f"isometry {'ok' if hermitian.isometry_ok[idx] else 'FAIL'}",
            file=out,
        )
    for line in report.violations + hermitian.violations:
        print(f"  {line}", file=out)
    ok = report.ok and hermitian.ok
    print("hypercomplex verification: " + ("PASS" if ok else "FAIL"), file=out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieranders",
        description="Curvature and Douglas/Berwald classification of "
        "left-invariant Randers metrics on low-dimensional Lie groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the built-in four-dimensional algebras")

    sub.add_parser("theorem", help="reproduce the Douglas/Berwald classification")

    def add_space_args(p):
        p.add_argument("--case", type=int, choices=range(5), help="catalog case id")
        p.add_argument("--file", help="algebra definition file (overrides --case)")

    p = sub.add_parser("classify", help="classify a Randers metric given by Q")
    add_space_args(p)
    p.add_argument("--Q", dest="q", required=True, help="comma list of rationals")

    p = sub.add_parser("flag", help="flag curvature for one flag (V pole, U completes)")
    add_space_args(p)
    p.add_argument("--Q", dest="q", required=True)
    p.add_argument("--V", dest="v", required=True)
    p.add_argument("--U", dest="u", required=True)

    p = sub.add_parser("sweep", help="flag-curvature sweep over seeded random flags")
    add_space_args(p)
    p.add_argument("--Q", dest="q", required=True)
    p.add_argument("--samples", type=positive_int, default=1000, help="number of flags (>= 1)")
    p.add_argument("--seed", type=_seed, required=True, help="integer in [0, 2**64)")
    p.add_argument("--csv", action="store_true", help="emit bare CSV only")

    p = sub.add_parser("check", help="validate a definition file")
    p.add_argument("file")

    p = sub.add_parser("hyper-verify", help="verify the hypercomplex triple in a file")
    p.add_argument("file")

    return parser


_HANDLERS = {
    "catalog": cmd_catalog,
    "theorem": cmd_theorem,
    "classify": cmd_classify,
    "flag": cmd_flag,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "hyper-verify": cmd_hyper_verify,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--Q -1/2,0`` as ``--Q=-1/2,0``, and ``--Q -.5,0`` as ``--Q=-.5,0``
    (also ``--V``, ``--U``): argparse takes "-1/2,0" for an option, as it
    takes any "-" token but a lone number."""
    out = []
    for token in argv:
        digits = token[1:3].removeprefix(".")
        if out and out[-1] in ("--Q", "--V", "--U") and token[:1] == "-" and digits[:1].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command in ("classify", "flag", "sweep") and not args.file:
        if args.case is None:
            parser.error(f"{args.command}: one of --case or --file is required")
    try:
        code = _HANDLERS[args.command](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left (| head): devnull takes the last flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except DefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEFINITION
    except NormTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NORM
    except NotDouglas as exc:
        print(f"error: not of Douglas type: {exc}", file=sys.stderr)
        return EXIT_NOT_DOUGLAS
    except DegeneratePlane as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (DimensionMismatch, LieRandersError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # numpy's MemoryError names the refused allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
