"""Per-layer tracing for the benchmark.

The program under test is not modified: :class:`LayerProbe` wraps public
functions and methods of each ``repro`` layer at run time, records a span
around every call, and folds the spans into work counters and self times.
A span's self time is its duration minus the time covered by the spans
nested directly inside it, so every millisecond is billed to exactly one
layer.  Spans are kept per thread, because the service runs repairs on two
worker threads at once.

VM runs are attributed to a *purpose* — the innermost enclosing pipeline
stage, or ``rescan`` inside a DIODE pass — so the rescan share of the VM
work is visible on its own.

Counters are plain sums.  Rates (cache hit rates, accept rates) are derived
from the sums by :func:`derive`, after the sums of several units or worker
processes have been added together.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

VM_PURPOSES = ("rescan", "validation", "discovery", "insertion", "donor", "other")

#: Stage name -> purpose of the VM runs made while the stage is active.
STAGE_PURPOSE = {
    "donor-selection": "donor",
    "check-discovery": "discovery",
    "insertion": "insertion",
    "validation": "validation",
}

STAGES = (
    "donor-selection",
    "check-discovery",
    "excision",
    "insertion",
    "rewrite",
    "patch-generation",
    "validation",
)


class LayerProbe:
    """Counters and per-thread span stacks for one process."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._simplify_base = {"hits": 0, "visits": 0}

    # -- spans ------------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _purposes(self) -> list:
        purposes = getattr(self._local, "purposes", None)
        if purposes is None:
            purposes = self._local.purposes = []
        return purposes

    def enter(self) -> None:
        self._stack().append([time.perf_counter(), 0.0])

    def leave(self, key: str) -> None:
        """Close the innermost span and bill its self time to ``key``."""
        end = time.perf_counter()
        stack = self._stack()
        started, children = stack.pop()
        duration = end - started
        if stack:
            stack[-1][1] += duration
        self.add(key, (duration - children) * 1000.0)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def purpose(self) -> str:
        purposes = self._purposes()
        return purposes[-1] if purposes else "other"

    # -- lifecycle --------------------------------------------------------------------

    def reset(self) -> None:
        """Zero the counters (and re-baseline the process-wide simplify memo)."""
        from repro.symbolic.simplify import simplify_cache_stats

        with self._lock:
            self.counters.clear()
        self._simplify_base = simplify_cache_stats()

    def snapshot(self) -> dict[str, float]:
        """The counters since :meth:`reset`, plus the simplify memo delta."""
        from repro.symbolic.simplify import simplify_cache_stats

        stats = simplify_cache_stats()
        with self._lock:
            counters = dict(self.counters)
        for name in ("hits", "visits"):
            counters[f"symbolic.simplify.{name}"] = float(
                stats[name] - self._simplify_base[name]
            )
        return counters

    def install(self) -> "LayerProbe":
        """Wrap the layer entry points; :meth:`uninstall` restores them."""
        from repro.campaign.store import RunStore
        from repro.core import validation
        from repro.core.rewrite import Rewriter
        from repro.core.stages import TransferEngine
        from repro.discovery.diode import Diode
        from repro.lang import checker, compile as bytecode
        from repro.lang.vm import VM
        from repro.solver.equivalence import EquivalenceChecker

        self._patch(VM, "run", self._wrap_vm_run)
        self._patch(Diode, "discover", self._wrap_diode)
        self._patch(TransferEngine, "run_stage", self._wrap_stage)
        self._patch(EquivalenceChecker, "equivalent", self._wrap_solver("equiv"))
        self._patch(EquivalenceChecker, "satisfiable", self._wrap_solver("sat"))
        self._patch(Rewriter, "rewrite", self._wrap_counted("core.rewrite.calls"))
        self._patch(RunStore, "append", self._wrap_timed("campaign.store.append_ms"))
        self._patch_everywhere(checker.compile_program, self._wrap_front_end)
        self._patch_everywhere(bytecode.compile_program, self._wrap_bytecode)
        self._patch_everywhere(bytecode.run_compiled, self._wrap_vm_run)
        self._patch_everywhere(validation.validate_patch, self._wrap_validate)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrap) -> None:
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def _patch_everywhere(self, original, wrap) -> None:
        """Rebind a module-level function in every ``repro`` module importing it."""
        wrapped = wrap(original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapped)

    # -- wrappers ---------------------------------------------------------------------

    def _wrap_vm_run(self, original):
        """One VM run: ``VM.run``, or ``run_compiled`` called directly.

        ``VM.run`` itself calls ``run_compiled`` for the compiled tier; only
        the outermost of the two counts.
        """
        probe = self

        def run(vm, *args, **kwargs):
            local = probe._local
            if getattr(local, "in_vm", False):
                return original(vm, *args, **kwargs)
            purpose = probe.purpose()
            local.in_vm = True
            probe.enter()
            try:
                result = original(vm, *args, **kwargs)
            finally:
                probe.leave(f"lang.vm.ms.{purpose}")
                local.in_vm = False
            probe.add(f"lang.vm.runs.{purpose}", 1)
            probe.add("lang.vm.steps", result.steps)
            return result

        return run

    def _wrap_diode(self, original):
        probe = self

        def discover(diode, *args, **kwargs):
            trials = diode.trials
            probe._purposes().append("rescan")
            probe.enter()
            try:
                findings = original(diode, *args, **kwargs)
            finally:
                probe.leave("discovery.diode.ms")
                probe._purposes().pop()
            probe.add("discovery.diode.rescans", 1)
            probe.add("discovery.diode.trials", diode.trials - trials)
            probe.add("discovery.diode.findings", len(findings))
            return findings

        return discover

    def _wrap_stage(self, original):
        probe = self

        def run_stage(engine, stage, *args, **kwargs):
            purposes = probe._purposes()
            purposes.append(STAGE_PURPOSE.get(stage.name, "other"))
            try:
                return original(engine, stage, *args, **kwargs)
            finally:
                purposes.pop()

        return run_stage

    def _wrap_solver(self, kind: str):
        probe = self

        def wrap(original):
            def query(checker, *args, **kwargs):
                stats = checker.statistics
                outermost = not getattr(probe._local, "in_solver", False)
                before = (
                    stats.cache_hits + checker.query_batch.hits,
                    stats.persistent_cache_hits,
                    stats.solver_invocations,
                )
                probe._local.in_solver = True
                probe.enter()
                try:
                    return original(checker, *args, **kwargs)
                finally:
                    probe.leave(f"solver.{kind}.ms")
                    if outermost:
                        probe._local.in_solver = False
                        probe.add(f"solver.{kind}.queries", 1)
                        hit = stats.cache_hits + checker.query_batch.hits > before[0]
                        persistent = stats.persistent_cache_hits > before[1]
                        probe.add("solver.session_hit_queries", 1 if hit else 0)
                        probe.add("solver.persistent_hit_queries", 1 if persistent else 0)
                        probe.add(
                            "solver.expensive_queries",
                            stats.solver_invocations - before[2],
                        )

            return query

        return wrap

    def _wrap_counted(self, key: str):
        probe = self

        def wrap(original):
            def counted(*args, **kwargs):
                probe.add(key, 1)
                return original(*args, **kwargs)

            return counted

        return wrap

    def _wrap_timed(self, key: str):
        probe = self

        def wrap(original):
            def timed(*args, **kwargs):
                probe.enter()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe.leave(key)

            return timed

        return wrap

    def _wrap_front_end(self, original):
        probe = self

        def compile_program(*args, **kwargs):
            probe.add("lang.compile.calls", 1)
            probe.enter()
            try:
                return original(*args, **kwargs)
            finally:
                probe.leave("lang.compile.ms")

        return compile_program

    def _wrap_bytecode(self, original):
        from repro.lang.compile import compile_cache_info, program_digest

        probe = self

        def compile_program(program, observed=False):
            digest = program_digest(program)
            key = (digest, "observed") if observed else digest
            hit = key in compile_cache_info()["digests"]
            probe.add("lang.bytecode.lookups", 1)
            probe.add("lang.bytecode.hits", 1 if hit else 0)
            probe.enter()
            try:
                return original(program, observed)
            finally:
                probe.leave("lang.compile.ms")

        return compile_program

    def _wrap_validate(self, original):
        probe = self

        def validate_patch(*args, **kwargs):
            outcome = original(*args, **kwargs)
            probe.add("core.patches.tried", 1)
            probe.add("core.patches.validated", 1 if outcome.ok else 0)
            return outcome

        return validate_patch


def stage_times(events, counters: dict) -> None:
    """Add ``StageFinished`` wall times (objects or dicts) to ``counters``."""
    for event in events:
        if isinstance(event, dict):
            if event.get("event") != "StageFinished":
                continue
            stage, elapsed = event.get("stage", ""), event.get("elapsed_s", 0.0)
        else:
            if type(event).__name__ != "StageFinished":
                continue
            stage, elapsed = event.stage, event.elapsed_s
        key = f"core.stage.{stage}.ms"
        counters[key] = counters.get(key, 0.0) + elapsed * 1000.0


def merge(into: dict, counters: dict) -> None:
    for key, value in counters.items():
        into[key] = into.get(key, 0.0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(totals: dict, units: int) -> dict[str, float]:
    """Per-unit counters and the derived rates, over the per-layer metric names."""
    per = max(1, units)
    out: dict[str, float] = {}
    for purpose in VM_PURPOSES:
        out[f"lang.vm.runs.{purpose}"] = totals.get(f"lang.vm.runs.{purpose}", 0.0) / per
        out[f"lang.vm.ms.{purpose}"] = totals.get(f"lang.vm.ms.{purpose}", 0.0) / per
    for key in (
        "lang.vm.steps",
        "lang.compile.calls",
        "lang.compile.ms",
        "discovery.diode.rescans",
        "discovery.diode.trials",
        "discovery.diode.ms",
        "solver.equiv.queries",
        "solver.equiv.ms",
        "solver.sat.queries",
        "solver.sat.ms",
        "solver.expensive_queries",
        "core.patches.tried",
        "core.patches.validated",
        "core.rewrite.calls",
        "campaign.store.append_ms",
        "campaign.dispatch_overhead_ms",
        "campaign.worker_utilization",
        "dist.dispatch_overhead_ms",
        "dist.worker_utilization",
        "dist.steals",
    ):
        out[key] = totals.get(key, 0.0) / per
    for stage in STAGES:
        key = f"core.stage.{stage}.ms"
        out[key] = totals.get(key, 0.0) / per
    queries = totals.get("solver.equiv.queries", 0.0) + totals.get("solver.sat.queries", 0.0)
    out["lang.bytecode.cache_hit_rate"] = _ratio(
        totals.get("lang.bytecode.hits", 0.0), totals.get("lang.bytecode.lookups", 0.0)
    )
    out["discovery.diode.hit_rate"] = _ratio(
        totals.get("discovery.diode.findings", 0.0), totals.get("discovery.diode.trials", 0.0)
    )
    hits = totals.get("symbolic.simplify.hits", 0.0)
    out["symbolic.simplify.cache_hit_rate"] = _ratio(
        hits, hits + totals.get("symbolic.simplify.visits", 0.0)
    )
    out["solver.cache_hit_rate"] = _ratio(totals.get("solver.session_hit_queries", 0.0), queries)
    out["solver.persistent_hit_rate"] = _ratio(
        totals.get("solver.persistent_hit_queries", 0.0), queries
    )
    out["core.validation.accept_rate"] = _ratio(
        totals.get("core.patches.validated", 0.0), totals.get("core.patches.tried", 0.0)
    )
    return out
