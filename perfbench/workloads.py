"""Workload inputs, timed loops and output checks.

Every workload is one process with one closed-loop client: the next op starts
only after the previous one returned.  Inputs come from the workload seed
alone.  Library calls go through module attributes (``lc.classify_randers``),
never through names imported here, so the tracer's wrappers see them.

Workloads:

* ``sweep_csv``: the CLI sweep ``lieranders sweep --case 2 --Q 0,0,1/2,0
  --samples 5000 --seed S --csv`` through ``lieranders.cli.main``, with
  stdout captured and counted.  One op is one flag.
* ``sweep_kernels``: ``run_sweep`` in-process on the same structure, reduced
  to the sign-match count.  One op is one flag.
* ``exact_mix``: one exact-rational call per op, over a fixed seeded mix of
  six classes ``<kind>.<family>``.  ``kind`` is ``classify``
  (``classify_randers``), ``flag_cached`` (``flag_curvature_simplified``
  with a prebuilt curvature table) or ``flag_uncached`` (the same call
  without a table).  ``family`` is ``catalog`` (cases 1-4, identity metric)
  or ``dense`` (the same algebras under seeded dense rational SPD metrics).
"""

from __future__ import annotations

import io
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from lieranders import algebra as la
from lieranders import cli
from lieranders import classify as lc
from lieranders import flagcurv as lf
from lieranders import randers as lr
from lieranders import riemann as lrm
from lieranders import sweep as ls

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SWEEP_CASE = 2
SWEEP_Q = "0,0,1/2,0"
SWEEP_HEADER = "a,b,c,d,K_g,K_F,correction,sign_match"
SWEEP_SAMPLES = 5_000  # flags per sweep, on both sweep workloads
SIGN_TOL = 1e-12       # run_sweep's default sign tolerance
EXACT_ROWS = 32        # sweep rows re-evaluated on the exact path, per checked sweep
EXACT_EVERY = 50       # every 50th sweep of a run is checked on the exact path
ORACLE_OPS = 8         # exact flag ops re-evaluated by the Deng-Hou oracle
# Bound on |float - exact| relative to the largest term (at least 1).
TOL = 1e-9
# CSV values carry 12 significant digits: V is off by up to 5e-13 relative.
V_RTOL = 1e-11
SETUP_REPEATS = 10
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150

KINDS = ("classify", "flag_cached", "flag_uncached")
FAMILIES = tr.FAMILIES
DENSE_METRICS_PER_CASE = 4
# Inputs of each class in the exact mix, set so that each class takes a
# similar share of a round (55-100 ms of ~0.4 s at the fastest repeats) and
# a run repeats every input 40 times or more.
MIX = {
    ("classify", "catalog"): 128, ("classify", "dense"): 48,
    ("flag_cached", "catalog"): 128, ("flag_cached", "dense"): 32,
    ("flag_uncached", "catalog"): 20, ("flag_uncached", "dense"): 8,
}


CPUS = sorted(os.sched_getaffinity(0))


def pin(i: int) -> None:
    """Move the calling thread to the i-th allowed CPU, cyclically.

    Neighbouring load on a shared machine can keep one CPU slow for many
    seconds, and a long-lived process tends to stay on one CPU; rotating
    rounds over every allowed CPU keeps one such CPU from setting a whole
    run.
    """
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout(f"child process still running after {CHILD_TIMEOUT_S} s")


def wall_seconds(cmd: list[str]) -> float:
    """Wall time of a fresh process running ``cmd`` (stdout discarded).

    The wait blocks in waitpid, so the time is exact; ``Popen.wait`` with a
    timeout polls in steps of up to 50 ms instead.  SIGALRM bounds the wait
    without a helper thread.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        try:
            code = proc.wait()
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def close(a: float, b: float, scale: float) -> bool:
    """|a - b| within TOL of the largest term (at least 1)."""
    return abs(a - b) <= TOL * max(1.0, scale)


class Phase:
    """Timings and failures of one measured phase.

    Given a set-up command, the phase also times ``SETUP_REPEATS`` fresh
    processes running it, between rounds (``probe_setup``).
    """

    def __init__(self, setup_command: list[str] | None = None):
        self.setup_command = setup_command
        self.setup_times: list[float] = []
        self.times: list[list[float]] = []
        self.attempted = 0
        self.failed_ops: set = set()
        self.errors: list[str] = []
        self.snapshot: dict | None = None
        self.tracer: tr.Tracer | None = None

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.errors) < 10:
            self.errors.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def seconds_per_op(self) -> float:
        """Mean over inputs of each input's fastest repeat.

        The machine may be shared: other load only ever adds time to an op,
        and it comes and goes over minutes, so a run's median moves with it
        while each input's fastest repeat stays put.
        """
        return sum(min(t) for t in self.times) / len(self.times)

    @property
    def ops(self) -> int:
        return sum(len(t) for t in self.times)

    def probe_setup(self, spent: float, seconds: float) -> None:
        """Run the set-up probes due once ``spent`` of ``seconds`` are over.

        One is due at the start and one after each further 1/SETUP_REPEATS
        of the run, so the probes sample the machine at moments spread over
        the whole run rather than in one burst: load from other tenants
        comes and goes over seconds.
        """
        if self.setup_command is None:
            return
        done = spent / seconds if seconds > 0 else 1.0
        due = min(SETUP_REPEATS, int(done * SETUP_REPEATS) + 1)
        while len(self.setup_times) < due:
            unpin()  # the probe inherits this thread's CPU set
            self.setup_times.append(wall_seconds(self.setup_command))


def traced(phase: Phase, run) -> None:
    """Run ``run()`` with the tracer installed and keep its counters."""
    phase.tracer = tracer = tr.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    phase.snapshot = tracer.snapshot()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep_structure() -> lr.RandersStructure:
    q = tuple(Fraction(p) for p in SWEEP_Q.split(","))
    return lr.make_randers(la.catalog(SWEEP_CASE), lrm.identity_metric(4), q)


def sweep_flags(r: lr.RandersStructure, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(V, U) of the ``n`` flags ``run_sweep(r, n, seed)`` draws.

    A replay of its draw: the Philox stream keyed by ``[seed, 3]``, V then U
    per batch, near-degenerate flags rejected.  With U known, every checked
    row's K_g is evaluated on the exact path too.  A change to the draw in
    ``run_sweep`` shows as rows whose V differs, and is mirrored here.
    """
    gram = np.array([[float(x) for x in row] for row in r.metric.gram])
    rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
    vs, us, filled = [], [], 0
    while filled < n:
        v = rng.uniform(-1.0, 1.0, size=(n - filled, r.dim))
        u = rng.uniform(-1.0, 1.0, size=(n - filled, r.dim))
        gv = np.einsum("ni,ij,nj->n", v, gram, v)
        gu = np.einsum("ni,ij,nj->n", u, gram, u)
        guv = np.einsum("ni,ij,nj->n", v, gram, u)
        good = (gv > 1e-6) & (gu * gv - guv**2 > 1e-8)
        vs.append(v[good])
        us.append(u[good])
        filled += int(good.sum())
    return np.concatenate(vs), np.concatenate(us)


class SweepWorkload:
    """One op is one sweep of ``SWEEP_SAMPLES`` flags; throughput counts flags.

    Every sweep of a run uses the workload seed, so per-op counts such as
    bytes written repeat exactly whatever the number of sweeps.

    Each sweep's columns (V block, K_g, K_F, correction, sign_match) are
    checked right after it: row count, finiteness, V against the replayed
    draw (``sweep_flags``) and ``run_sweep``'s sign-match rule on every row.
    On every ``EXACT_EVERY``-th sweep a seeded subset of rows is kept and,
    after the timed loop, K_g, K_F and the correction are compared with the
    exact ``flag_curvature_simplified`` at the replayed flag, converted
    exactly by ``Fraction(float)``.
    """

    units = "flags"
    n = SWEEP_SAMPLES

    def __init__(self, seed: int):
        self.seed = seed
        self.r = sweep_structure()
        self.v, self.u = sweep_flags(self.r, self.n, seed)
        self.rng = random.Random(f"check/{seed}")

    def measure(self, seconds: float, trace: bool, setup: bool = False) -> Phase:
        phase = Phase(self.setup_command() if setup else None)
        phase.times = [[]]
        self.kept: list[tuple[int, list]] = []
        self.bytes_out = 0

        def loop():
            spent = 0.0
            try:
                while len(phase.times[0]) < MIN_ROUNDS or spent < seconds:
                    phase.probe_setup(spent, seconds)
                    i = len(phase.times[0])
                    phase.attempted += 1
                    pin(i)
                    dt = self.one(phase, i)
                    phase.times[0].append(dt)
                    spent += dt
                phase.probe_setup(spent, seconds)
            finally:
                unpin()

        if trace:
            traced(phase, loop)
        else:
            loop()
        self.exact_check(phase)
        return phase

    def row_check(self, phase: Phase, i: int, cols) -> None:
        v, k_g, k_f, corr, match = cols
        if any(len(c) != self.n for c in cols):
            phase.fail(i, f"sweep {i}: expected {self.n} rows, got {len(k_g)}")
            return
        if not all(np.isfinite(c).all() for c in (v, k_g, k_f, corr)):
            phase.fail(i, f"sweep {i}: non-finite value")
        moved = int((~np.isclose(v, self.v, rtol=V_RTOL, atol=0.0)).any(axis=1).sum())
        if moved:
            phase.fail(i, f"sweep {i}: {moved} rows whose V is not the replayed draw")
        scale = np.maximum(1.0, np.maximum(np.abs(k_f), np.abs(k_g)))
        both_zero = (np.abs(k_f) <= SIGN_TOL * scale) & (np.abs(k_g) <= SIGN_TOL * scale)
        expect = (np.sign(k_f) == np.sign(k_g)) | both_zero
        bad = int((expect != match.astype(bool)).sum())
        if bad:
            phase.fail(i, f"sweep {i}: {bad} rows with sign_match disagreeing with the signs")
        if i % EXACT_EVERY:
            return
        rows = self.rng.sample(range(self.n), min(EXACT_ROWS, self.n))
        self.kept.append((i, [(j, float(k_g[j]), float(k_f[j]), float(corr[j])) for j in rows]))

    def exact_check(self, phase: Phase) -> None:
        r = self.r
        table = lrm.curvature_tensor(r.algebra, lrm.levi_civita(r.algebra, r.metric))
        for i, rows in self.kept:
            for j, *got in rows:
                flag = lf.Flag(v=tuple(Fraction(float(x)) for x in self.v[j]),
                               u=tuple(Fraction(float(x)) for x in self.u[j]))
                res = lf.flag_curvature_simplified(r, flag, curvature=table)
                want = (res.k_g, res.k_f, res.correction)
                big = max(abs(x) for x in (*got, *want))
                if not all(close(a, b, big) for a, b in zip(got, want)):
                    phase.fail(i, f"sweep {i} row {j}: (K_g, K_F, correction) "
                                  f"{tuple(got)}, exact {want}")
                    break


class Sink(io.RawIOBase):
    """Byte sink behind a stand-in stdout; keeps what the command printed."""

    def __init__(self):
        self.chunks: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.chunks.append(bytes(data))
        return len(data)


class SweepCsv(SweepWorkload):
    """``lieranders.cli.main`` on the sweep arguments, in this process.

    Standard output is a buffered text stream over a sink, as for a pipe;
    the bytes are counted and checked.  Interpreter start-up, which every
    CLI call also pays, is ``setup_s``.
    """

    name = "sweep_csv"

    def setup_command(self) -> list[str]:
        return [sys.executable, "-m", "lieranders.cli", "--version"]

    def one(self, phase: Phase, i: int) -> float:
        argv = ["sweep", "--case", str(SWEEP_CASE), "--Q", SWEEP_Q,
                "--samples", str(self.n), "--seed", str(self.seed), "--csv"]
        sink = Sink()
        stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BufferedWriter(sink),
                                                          encoding="utf-8")
        t0 = time.perf_counter()
        try:
            if phase.tracer:
                code = phase.tracer.span("cli.main", cli.main, argv)
            else:
                code = cli.main(argv)
            sys.stdout.flush()
        except Exception as exc:  # every failure is counted, the loop goes on
            code = exc
        finally:
            dt = time.perf_counter() - t0
            sys.stdout = stdout
        out = b"".join(sink.chunks)
        self.bytes_out += len(out)
        if code != 0:
            phase.fail(i, f"sweep {i}: cli.main returned {code!r}")
            return dt
        lines = out.decode().split("\n")
        rows = lines[1:-1] if lines[-1] == "" else lines[1:]
        if lines[0] != SWEEP_HEADER or len(rows) != self.n:
            phase.fail(i, f"sweep {i}: header {lines[0]!r}, {len(rows)} rows")
            return dt
        try:
            data = np.array(",".join(rows).split(","), dtype=float).reshape(self.n, 8)
        except ValueError as exc:
            phase.fail(i, f"sweep {i}: unparsable CSV: {exc}")
            return dt
        if not np.isin(data[:, 7], (0.0, 1.0)).all():
            phase.fail(i, f"sweep {i}: sign_match column is not 0/1")
        self.row_check(phase, i, (data[:, :4], data[:, 4], data[:, 5], data[:, 6], data[:, 7]))
        return dt


class SweepKernels(SweepWorkload):
    name = "sweep_kernels"

    def setup_command(self) -> list[str]:
        return [sys.executable, str(HERE / "setup_probe.py"), self.name, str(self.seed)]

    def one(self, phase: Phase, i: int) -> float:
        t0 = time.perf_counter()
        try:
            res = ls.run_sweep(self.r, self.n, self.seed)
            int(res.sign_match.sum())
        except Exception as exc:  # every failure is counted, the loop goes on
            phase.fail(i, f"sweep {i}: run_sweep raised {exc!r}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self.row_check(phase, i, (res.v, res.k_g, res.k_f, res.correction, res.sign_match))
        return dt


# ---------------------------------------------------------------------------
# exact-rational ops
# ---------------------------------------------------------------------------


def dense_metric(rng: random.Random, dim: int) -> lrm.MetricTensor:
    """P^T P / 2 for a unimodular integer P, resampled until G has no zero
    entry and trace(P^T P) = 17.

    P = U L with unit-triangular U, L of entries in {-1, 0, 1}, so det G is
    fixed and G^-1 = 2 (P^T P)^-1 is integral; with the trace fixed too,
    every seed gives rationals of the same size and the per-op cost does not
    depend on the seed.
    """
    while True:
        upper = [[int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(dim)]
                 for i in range(dim)]
        lower = [[int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(dim)]
                 for i in range(dim)]
        p = [[sum(upper[i][k] * lower[k][j] for k in range(dim)) for j in range(dim)]
             for i in range(dim)]
        gram = tuple(
            tuple(Fraction(sum(p[k][i] * p[k][j] for k in range(dim)), 2) for j in range(dim))
            for i in range(dim))
        if all(all(row) for row in gram) and sum(x * x for row in p for x in row) == 17:
            return lrm.MetricTensor(gram)


def rational_vector(rng: random.Random, dim: int, num: int, den: int):
    return tuple(Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(dim))


def inside_norm(q, metric):
    """q / k for the least integer k with g(q/k, q/k) < 1/2."""
    norm = metric.inner(q, q)
    k = 1
    while norm >= Fraction(k * k, 2):
        k += 1
    return tuple(x / k for x in q)


def douglas_q(rng: random.Random, basis, metric):
    while True:
        q = tuple(Fraction(0) for _ in range(metric.dim))
        for b in basis:
            c = Fraction(rng.randint(-6, 6), 4)
            q = tuple(x + c * y for x, y in zip(q, b))
        if any(q):
            return inside_norm(q, metric)


def generic_q(rng: random.Random, algebra, metric):
    while True:
        q = rational_vector(rng, metric.dim, 6, 4)
        if any(q) and not lc.is_douglas(algebra, metric, q)[0]:
            return inside_norm(q, metric)


def random_flag(rng: random.Random, dim: int) -> lf.Flag:
    while True:
        v = rational_vector(rng, dim, 9, 4)
        u = rational_vector(rng, dim, 9, 4)
        if any(v[i] * u[j] != v[j] * u[i] for i in range(dim) for j in range(dim)):
            return lf.Flag(v=v, u=u)


class ExactMix:
    """One op is one exact call; a round runs every input of the mix once.

    The mix holds the six classes ``<kind>.<family>`` in the counts of
    ``MIX``, shuffled into one seeded order, so every class is spread over
    the whole round.  Spaces, Douglas subspaces and curvature tables are
    built once here and shared by the classes that use them.
    """

    name = "exact_mix"
    units = "ops"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        self.spaces = {  # family -> [(case, algebra, metric)]
            "catalog": [(case, la.catalog(case), lrm.identity_metric(4)) for case in (1, 2, 3, 4)],
            "dense": [(case, la.catalog(case), dense_metric(rng, 4))
                      for case in (1, 2, 3, 4) for _ in range(DENSE_METRICS_PER_CASE)],
        }
        bases = {family: [lc.douglas_subspace(a, m).basis for _, a, m in spaces]
                 for family, spaces in self.spaces.items()}
        tables = {family: [lrm.curvature_tensor(a, lrm.levi_civita(a, m))
                           for _, a, m in spaces]
                  for family, spaces in self.spaces.items()}
        self.inputs = []  # (class, space index, Randers structure, flag or None, table)
        for (kind, family), count in MIX.items():
            cls = f"{kind}.{family}"
            spaces = self.spaces[family]
            for j in range(count):  # the spaces in turn
                s = j % len(spaces)
                _, algebra, metric = spaces[s]
                if kind == "classify":  # Douglas and generic Q on alternate passes
                    q = (douglas_q(rng, bases[family][s], metric) if j // len(spaces) % 2 == 0
                         else generic_q(rng, algebra, metric))
                    self.inputs.append((cls, s, lr.make_randers(algebra, metric, q), None, None))
                    continue
                table = tables[family][s] if kind == "flag_cached" else None
                r = lr.make_randers(algebra, metric, douglas_q(rng, bases[family][s], metric))
                self.inputs.append((cls, s, r, random_flag(rng, 4), table))
        rng.shuffle(self.inputs)
        flags = [i for i, (cls, *_) in enumerate(self.inputs) if not cls.startswith("classify")]
        self.oracle_ops = set(rng.sample(flags, ORACLE_OPS))

    def setup_command(self) -> list[str]:
        return [sys.executable, str(HERE / "setup_probe.py"), self.name, str(self.seed)]

    def family(self, index: int) -> str:
        return self.inputs[index][0].split(".")[1]

    def op(self, index: int):
        cls, _, r, flag, table = self.inputs[index]
        if cls.startswith("classify"):
            return lc.classify_randers(r)
        if table is not None:
            return lf.flag_curvature_simplified(r, flag, curvature=table)
        return lf.flag_curvature_simplified(r, flag)

    def measure(self, seconds: float, trace: bool, setup: bool = False) -> Phase:
        phase = Phase(self.setup_command() if setup else None)
        if trace:
            traced(phase, lambda: self._rounds(phase, seconds))
        else:
            self._rounds(phase, seconds)
        self.check(phase)
        return phase

    def _rounds(self, phase: Phase, seconds: float) -> None:
        phase.times = [[] for _ in self.inputs]
        self.results = [None] * len(self.inputs)
        try:
            self._round_loop(phase, seconds)
        finally:
            unpin()
            if phase.tracer:
                phase.tracer.scope = ""

    def _round_loop(self, phase: Phase, seconds: float) -> None:
        spent = 0.0
        rounds = 0
        while rounds < MIN_ROUNDS or spent < seconds:
            phase.probe_setup(spent, seconds)
            pin(rounds)
            for i in range(len(self.inputs)):
                if phase.tracer:
                    phase.tracer.scope = self.family(i)
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    res = self.op(i)
                except Exception as exc:  # every failure is counted, the loop goes on
                    res = exc
                    phase.fail(i, f"{self.inputs[i][0]} input {i}: {exc!r}")
                dt = time.perf_counter() - t0
                phase.times[i].append(dt)
                spent += dt
                if rounds == 0:
                    self.results[i] = res
            rounds += 1
        phase.probe_setup(spent, seconds)

    def ops_by_family(self, phase: Phase) -> dict[str, int]:
        counts = dict.fromkeys(FAMILIES, 0)
        for i, t in enumerate(phase.times):
            counts[self.family(i)] += len(t)
        return counts

    def class_rates(self, phase: Phase) -> dict[str, float]:
        """Calls per second of each class: its inputs over their fastest repeats."""
        best: dict[str, list[float]] = {}
        for (cls, *_), t in zip(self.inputs, phase.times):
            best.setdefault(cls, []).append(min(t))
        return {cls: len(b) / sum(b) for cls, b in best.items()}

    def check(self, phase: Phase) -> None:
        """Verdicts against the reference tables; flag values against Deng-Hou."""
        expected = {rep.case_id: rep for rep in lc.expected_theorem_reports()}
        subspaces = {}  # (family, space index) -> (Douglas subspace, Berwald subset)
        for i, (cls, s, r, flag, _) in enumerate(self.inputs):
            res = self.results[i]
            if isinstance(res, Exception):
                continue
            family = cls.split(".")[1]
            if cls.startswith("classify"):
                if (family, s) not in subspaces:
                    case, algebra, metric = self.spaces[family][s]
                    if family == "catalog":
                        pair = (expected[case].douglas, expected[case].berwald)
                    else:
                        douglas = lc.douglas_subspace(algebra, metric)
                        pair = (douglas, lc.berwald_subset(algebra, metric, douglas))
                    subspaces[family, s] = pair
                douglas, berwald = subspaces[family, s]
                if not douglas.contains(r.q_field):
                    want = lc.RandersClass.NOT_DOUGLAS
                elif berwald.contains(r.q_field):
                    want = lc.RandersClass.BERWALD_DOUGLAS
                else:
                    want = lc.RandersClass.NON_BERWALD_DOUGLAS
                if res.kind != want:
                    phase.fail(i, f"{cls} input {i}: {res.kind} != {want}")
                continue
            values = tuple(res)
            if not all(math.isfinite(x) for x in values):
                phase.fail(i, f"{cls} input {i}: non-finite {values}")
            elif i in self.oracle_ops:
                want = tuple(lf.flag_curvature_deng_hou(r, flag))
                big = max(abs(x) for x in values + want)
                if not all(close(a, b, big) for a, b in zip(values, want)):
                    phase.fail(i, f"{cls} input {i}: {values} != Deng-Hou {want}")


def names() -> list[str]:
    return ["sweep_csv", "sweep_kernels", "exact_mix"]


def build(name: str, seed: int):
    """Build a workload's inputs and tables: the set-up before the first op."""
    if name == "sweep_csv":
        return SweepCsv(seed)
    if name == "sweep_kernels":
        return SweepKernels(seed)
    if name == "exact_mix":
        return ExactMix(seed)
    raise ValueError(f"unknown workload {name!r}")
