"""Benchmark entry point: real CodePhage repairs, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload service --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures the per-layer metrics (and the tracing overhead) in a separate run.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``# report`` line with the known-answer failures, sample counts and
provenance.  The exit code is 1 if any known-answer check failed or the
workload could not be set up, 2 if the program's sources are missing.
See ``perfbench/NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Fresh processes that repeat the set-up, besides the measuring process:
#: at least ``MIN_PROBES``, more while they have taken under
#: ``PROBE_SECONDS`` in total, at most ``MAX_PROBES`` (cheap set-ups get more
#: samples for the same cost).
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 2, 6, 2.0

END_TO_END = {
    "setup_s": "s",
    "repairs_per_s": "1/s",
    "repair_p50_ms": "ms",
    "repair_p90_ms": "ms",
    "cpu_ms_per_repair": "ms",
    "peak_rss_mb": "MB",
}


def process_age() -> float:
    """Seconds since this process started (the kernel's start time)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED


_IMPORTED = time.perf_counter()


def per_layer_units() -> dict[str, str]:
    import layers

    units: dict[str, str] = {}
    for purpose in layers.VM_PURPOSES:
        units[f"lang.vm.runs.{purpose}"] = "count"
    for purpose in layers.VM_PURPOSES:
        units[f"lang.vm.ms.{purpose}"] = "ms"
    units.update(
        {
            "lang.vm.steps": "count",
            "lang.compile.calls": "count",
            "lang.compile.ms": "ms",
            "lang.bytecode.cache_hit_rate": "ratio",
            "discovery.diode.rescans": "count",
            "discovery.diode.trials": "count",
            "discovery.diode.ms": "ms",
            "discovery.diode.hit_rate": "ratio",
            "symbolic.simplify.cache_hit_rate": "ratio",
            "solver.equiv.queries": "count",
            "solver.equiv.ms": "ms",
            "solver.sat.queries": "count",
            "solver.sat.ms": "ms",
            "solver.expensive_queries": "count",
            "solver.cache_hit_rate": "ratio",
            "solver.persistent_hit_rate": "ratio",
        }
    )
    for stage in layers.STAGES:
        units[f"core.stage.{stage}.ms"] = "ms"
    units.update(
        {
            "core.patches.tried": "count",
            "core.patches.validated": "count",
            "core.validation.accept_rate": "ratio",
            "core.rewrite.calls": "count",
            "campaign.dispatch_overhead_ms": "ms",
            "campaign.worker_utilization": "ratio",
            "campaign.store.append_ms": "ms",
            "dist.dispatch_overhead_ms": "ms",
            "dist.worker_utilization": "ratio",
            "dist.steals": "count",
            "scenarios.generate_ms": "ms",
            "service.submit_rtt_ms": "ms",
            "service.queue_wait_ms": "ms",
            "service.run_ms": "ms",
            "service.rejected": "count",
            "service.generator_late_ms": "ms",
            "verdict.failed_share": "ratio",
            "verdict.false_accepts": "count",
            "trace.overhead_ms": "ms",
            "trace.overhead_share": "ratio",
        }
    )
    return units


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def host_loop_ms(repeats: int = 3, additions: int = 1_000_000) -> float:
    """Median time of a fixed pure-Python loop, taken after the measurement.

    Not a metric: it shows how fast the (possibly shared) host ran around
    this run, so drift between runs can be told apart from a code change.
    """
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for value in range(additions):
            total += value
        samples.append((time.perf_counter() - began) * 1000.0)
    return statistics.median(samples)


def setup_probes(args) -> list[float]:
    """Repeat the set-up in fresh processes; each reports its own set-up time."""
    samples = []
    started = time.perf_counter()
    while len(samples) < MIN_PROBES or (
        len(samples) < MAX_PROBES and time.perf_counter() - started < PROBE_SECONDS
    ):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
                "--setup-probe",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(measurement, setup_samples: list[float]) -> dict[str, float]:
    from workloads import percentile

    latencies = measurement.latencies_ms
    units = [(wall, cpu, max(1, verdicts)) for wall, cpu, verdicts in measurement.unit_stats]
    return {
        "setup_s": statistics.median(setup_samples),
        "repairs_per_s": statistics.median(verdicts / wall for wall, _, verdicts in units),
        "repair_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "repair_p90_ms": percentile(latencies, 0.9),
        "cpu_ms_per_repair": statistics.median(
            cpu * 1000.0 / verdicts for _, cpu, verdicts in units
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print("# report " + json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    report = {"workload": args.workload, "trace": args.trace}
    try:
        try:
            workload.setup()
        except workloads.WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            report.update(error=str(exc), provenance=provenance(args.seed))
            emit(report, False, 1, 1, {}, {})
            return 1
        setup_s = process_age()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            totals, units, plain_ms, traced_ms = workload.run_traced(args.seconds)
            metrics = layers.derive(totals, units)
            metrics.update(workload.layer_extra)
            metrics["trace.overhead_ms"] = traced_ms - plain_ms
            metrics["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms if plain_ms else 0.0
            report.update(traced_units=units, untraced_unit_ms=plain_ms, traced_unit_ms=traced_ms)
            unit_names = per_layer_units()
        else:
            samples = [setup_s] + setup_probes(args)
            measurement = workload.run(args.seconds)
            metrics = end_to_end(measurement, samples)
            latencies = len(measurement.latencies_ms)
            report.update(
                setup_samples_s=samples,
                units=len(measurement.unit_stats),
                samples=latencies,
                beyond_p90=latencies - math.ceil(0.9 * latencies),
                timed_wall_s=measurement.wall_s,
                unit_repairs_per_s=[n / wall for wall, _, n in measurement.unit_stats],
                **measurement.extra,
            )
            unit_names = END_TO_END
        checker = workload.checker
        failed_share = checker.failed / checker.attempted if checker.attempted else 0.0
        if args.trace:
            metrics["verdict.failed_share"] = failed_share
            metrics["verdict.false_accepts"] = float(checker.false_accepts)
            metrics = {name: float(metrics.get(name, 0.0)) for name in unit_names}
        report.update(
            failed_share=failed_share,
            false_accepts=checker.false_accepts,
            attempted=checker.attempted,
            errors=checker.errors,
            digests_checked=workload.digests_checked,
            host_loop_ms=host_loop_ms(),
            provenance=provenance(args.seed),
        )
        correct = checker.mismatches == 0
        emit(report, correct, checker.attempted, checker.failed, metrics, unit_names)
        return 0 if correct else 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
