"""Per-layer spans recorded from outside the library.

The tracer replaces each target function with a wrapper that records a span
(calls, inclusive time, self time) and puts the original back on
``uninstall``.  A function that another ``lieranders`` module imported by
name (``from .sweep import run_sweep``) lives in that module's namespace too,
so every module attribute that *is* the original object gets the wrapper.
A target that no longer exists is reported as absent rather than failing, so
the benchmark keeps giving end-to-end numbers after a layer is renamed.

Self time is a span's duration minus the time covered by its child spans.
Kernel spans also count the flags they process (rows of the last argument)
and the tracemalloc peak of each call.

The caller may set ``Tracer.scope`` before each op (the exact mix sets the
op's family).  Spans are kept per scope, and the metrics of a ``scoped``
target are reported once per family, with the family as a suffix.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str          # metric prefix, "<module>.<function>"
    module: str
    attr: str          # "func" or "Class.method"
    metrics: tuple[str, ...]
    mode: str = "span"  # "span", "kernel" (adds flags and allocation) or "count"
    group: str | None = None  # outermost spans of a group add up to "<group>_s"
    scoped: bool = False  # reported per family: "<name>.<metric>.<family>"


FAMILIES = ("catalog", "dense")


TARGETS = (
    Target("sweep.run_sweep", "lieranders.sweep", "run_sweep", ("self_s",)),
    Target("sweep.dense_structure", "lieranders.sweep", "dense_structure", (),
           group="sweep.dense_tables"),
    Target("sweep.dense_gram", "lieranders.sweep", "dense_gram", (),
           group="sweep.dense_tables"),
    Target("sweep.dense_curvature", "lieranders.sweep", "dense_curvature", (),
           group="sweep.dense_tables"),
    Target("kernels.eval_f_batch", "lieranders.kernels", "eval_f_batch",
           ("ns_per_flag", "alloc_b_per_flag"), mode="kernel"),
    Target("kernels.sectional_batch", "lieranders.kernels", "sectional_batch",
           ("ns_per_flag", "alloc_b_per_flag"), mode="kernel"),
    Target("kernels.correction_batch", "lieranders.kernels", "correction_batch",
           ("ns_per_flag", "alloc_b_per_flag"), mode="kernel"),
    Target("classify.is_douglas", "lieranders.classify", "is_douglas",
           ("calls_per_op", "s"), scoped=True),
    Target("classify.is_berwald", "lieranders.classify", "is_berwald", ("s",), scoped=True),
    Target("algebra.derived_algebra", "lieranders.algebra",
           "LieAlgebra.derived_algebra", ("calls_per_op", "s"), scoped=True),
    # brackets are the innermost hot call: count them, timing would swamp them
    Target("algebra.bracket", "lieranders.algebra", "LieAlgebra.bracket",
           ("calls_per_op",), mode="count", scoped=True),
    Target("riemann.levi_civita", "lieranders.riemann", "levi_civita",
           ("calls_per_op", "s"), scoped=True),
    Target("riemann.curvature_tensor", "lieranders.riemann", "curvature_tensor",
           ("calls_per_op", "s"), scoped=True),
    Target("riemann.sectional_curvature", "lieranders.riemann",
           "sectional_curvature", ("self_s",), scoped=True),
    Target("flagcurv.flag_curvature_simplified", "lieranders.flagcurv",
           "flag_curvature_simplified", ("self_s",), scoped=True),
    Target("exactlinalg.rref", "lieranders.exactlinalg", "rref",
           ("calls_per_op", "s"), scoped=True),
)

UNITS = {
    "self_s": "s", "s": "s", "calls_per_op": "count",
    "ns_per_flag": "ns", "alloc_b_per_flag": "B",
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    flags: int = 0
    alloc_b: int = 0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.scope = ""
        self.stats: dict[tuple[str, str], Stat] = {}  # (scope, name) -> Stat
        self.group_s: dict[str, float] = {}
        self.absent: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._open: list[float] = []  # child time covered so far, per open span
        self._group_depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, group=None, kernel=False):
        stat = self.stats.setdefault((self.scope, name), Stat())
        if group:
            self._group_depth[group] = self._group_depth.get(group, 0) + 1
        if kernel:
            tracemalloc.start()
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._open.pop()
            if kernel:
                stat.alloc_b += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                stat.flags += len(args[-1])
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += dur - child
            if self._open:
                self._open[-1] += dur
            if group:
                self._group_depth[group] -= 1
                if not self._group_depth[group]:
                    self.group_s[group] = self.group_s.get(group, 0.0) + dur

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own, as the benchmark's call site."""
        return self.call(name, fn, args, kwargs)

    # -- patching --------------------------------------------------------

    def _wrapper(self, target: Target, original):
        if target.mode == "count":
            stats = self.stats

            @functools.wraps(original)
            def counted(*args, **kwargs):
                key = (self.scope, target.name)
                if key not in stats:
                    stats[key] = Stat()
                stats[key].calls += 1
                return original(*args, **kwargs)

            return counted

        kernel = target.mode == "kernel"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(target.name, original, args, kwargs, target.group, kernel)

        return traced

    def install(self) -> None:
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrapper(target, original)
            if owner_name:
                owners = [(owner, f"{target.module}.{target.attr}")]
            else:
                owners = [
                    (mod, mod_name)
                    for mod_name, mod in sorted(sys.modules.items())
                    if mod_name == "lieranders" or mod_name.startswith("lieranders.")
                ]
            sites = []
            for holder, label in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))
                        sites.append(label if owner_name else f"{label}.{key}")
            self.sites[target.name] = sites

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of the counters."""
        return {
            "stats": [(scope, name, vars(st)) for (scope, name), st in self.stats.items()],
            "group_s": dict(self.group_s),
            "absent": list(self.absent),
            "sites": dict(self.sites),
        }


def layer_metrics(snap: dict, ops: dict[str, int], targets=TARGETS) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from a snapshot; ``ops`` counts the traced ops per scope.

    A scoped target gets one metric per family, over that family's ops; the
    others get one over all ops.  Layers the workload never entered read 0.
    Absent targets are left out.
    """
    out: dict[str, tuple[float, str]] = {}
    groups = []
    for target in targets:
        if target.group and target.group not in groups:
            groups.append(target.group)
        if target.name in snap["absent"]:
            continue
        scopes = [(f".{f}", {f}) for f in FAMILIES] if target.scoped else [("", set(ops))]
        for suffix, within in scopes:
            st = Stat()
            for scope, name, s in snap["stats"]:
                if name == target.name and scope in within:
                    for field, value in s.items():
                        setattr(st, field, getattr(st, field) + value)
            n = sum(ops.get(scope, 0) for scope in within)
            for metric in target.metrics:
                if metric == "calls_per_op":
                    value = st.calls / n if n else 0.0
                elif metric == "s":
                    value = st.total_s / n if n else 0.0
                elif metric == "self_s":
                    value = st.self_s / n if n else 0.0
                elif metric == "ns_per_flag":
                    value = st.total_s * 1e9 / st.flags if st.flags else 0.0
                else:  # alloc_b_per_flag
                    value = st.alloc_b / st.flags if st.flags else 0.0
                out[f"{target.name}.{metric}{suffix}"] = (value, UNITS[metric])
    total = sum(ops.values())
    for group in groups:
        members = [t.name for t in targets if t.group == group]
        if all(name in snap["absent"] for name in members):
            continue
        out[f"{group}_s"] = (snap["group_s"].get(group, 0.0) / total, "s")
    return out
