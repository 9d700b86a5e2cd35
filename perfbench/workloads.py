"""The benchmark's workloads: real repairs through the public entry points.

Each workload has a ``setup`` (everything before the first timed request),
a timed ``run`` that measures end-to-end latency and throughput with tracing
off, and a ``run_traced`` that alternates untraced and traced units of the
same work, so the per-layer counters come with the tracing overhead.

Every verdict is checked against known answers (see :class:`Checker`):
the Figure 8 columns and patched-source digests captured once in
``reference.json``, the hardness dimension's expected verdict for generated
pairs, and a replay of each validated patch with ``run_program``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import layers
import unixhttp

HERE = Path(__file__).resolve().parent

#: Matrix corpus size: every hardness dimension x every error class x this.
PAIRS_PER_CLASS = 8
#: Concurrency of every workload's load: the 2 cores of the reference box.
SLOTS = 2
#: Service open-loop arrival rate (jobs/s); see NOTES.md for the choice.
SERVICE_RATE = 2.16
#: How often the service load generator polls in-flight jobs.
SERVICE_POLL_S = 0.02
#: A service job with no terminal status this long after the last request
#: was sent is counted as failed (the daemon's own job budget is 30 s).
SERVICE_DRAIN_S = 90.0

#: Figure 8 columns that are deterministic (everything but Time).
FIGURE8_COLUMNS = (
    "success",
    "relevant_branches",
    "flipped_branches",
    "used_checks",
    "insertion_points",
    "check_size",
)


class WorkloadError(RuntimeError):
    """The workload could not be set up (e.g. corpus generation failed)."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def outcome_key(outcome) -> str:
    return f"{outcome.recipient}|{outcome.target}|{outcome.donor}"


# -- report capture -----------------------------------------------------------------------

_CAPTURED: list = []
_CAPTURE_LOCK = threading.Lock()
_CAPTURING = [False]


def capture_reports() -> None:
    """Record every :class:`RepairReport` this process produces (idempotent).

    Wraps ``RepairSession.run``: campaign workers and the service's worker
    threads never hand their reports back, and the known-answer checks need
    the patched source.
    """
    if _CAPTURING[0]:
        return
    from repro.api import RepairSession

    original = RepairSession.run

    def run(session, request):
        report = original(session, request)
        with _CAPTURE_LOCK:
            _CAPTURED.append(report)
        return report

    RepairSession.run = run
    _CAPTURING[0] = True


def take_captured() -> list:
    with _CAPTURE_LOCK:
        reports = list(_CAPTURED)
        _CAPTURED.clear()
    return reports


# -- the process-wide probe ---------------------------------------------------------------

_PROBE: list = [None]


def probe() -> layers.LayerProbe:
    """This process's installed probe (installing it on first use)."""
    if _PROBE[0] is None:
        _PROBE[0] = layers.LayerProbe().install()
    return _PROBE[0]


def drop_probe() -> None:
    if _PROBE[0] is not None:
        _PROBE[0].uninstall()
        _PROBE[0] = None


# -- known answers ------------------------------------------------------------------------


class Checker:
    """Counts attempts and failures, and checks verdicts against known answers."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.false_accepts = 0
        self.errors: list[str] = []
        self._replayed: dict[str, bool] = {}

    def fail(self, message: str, mismatch: bool = True) -> None:
        self.failed += 1
        if mismatch:
            self.mismatches += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def replay(self, source: str, name: str, format_name: str, seed: bytes, errors) -> bool:
        """The patched program survives every error input and accepts the seed."""
        digest = sha256(source)
        known = self._replayed.get(digest)
        if known is not None:
            return known
        from repro.formats.registry import get_format
        from repro.lang import run_program
        from repro.lang.checker import compile_program

        spec = get_format(format_name)
        program = compile_program(source, name=name)
        ok = run_program(program, seed, field_map=spec.field_map(seed)).accepted
        for data in errors:
            ok = ok and not run_program(program, data, field_map=spec.field_map(data)).crashed
        self._replayed[digest] = ok
        return ok

    def figure8_columns(self, key: str, record: dict):
        """Why a Figure 8 record's deterministic columns are wrong (None if right)."""
        expected = self.reference["figure8"].get(key)
        if expected is None:
            return f"{key}: not a Figure 8 row"
        columns = {name: record[name] for name in FIGURE8_COLUMNS}
        if columns != expected["columns"]:
            return f"{key}: columns {columns} != reference {expected['columns']}"
        return None

    def figure8_patch(self, key: str, source, cases: dict):
        """Why a Figure 8 row's patched source is wrong (None if right): digest, replay."""
        expected = self.reference["figure8"].get(key)
        if expected is None or source is None or sha256(source) != expected["patch_sha256"]:
            return f"{key}: patched source differs from the reference"
        case = cases[key]
        recipient = key.split("|", 1)[0]
        if not self.replay(
            source, recipient, case.format_name, case.seed_input(), [case.error_input()]
        ):
            return f"{key}: replay of the patched program failed"
        return None


def figure8_cases() -> dict:
    """outcome key -> ErrorCase, for every Figure 8 row."""
    from repro.apps import get_application
    from repro.experiments import FIGURE8_ROWS

    cases = {}
    for row in FIGURE8_ROWS:
        recipient = row.case.application()
        donor = get_application(row.donor)
        key = f"{recipient.full_name}|{row.case.target_id}|{donor.full_name}"
        cases[key] = row.case
    return cases


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Measurement:
    """What the timed parts of a run produced (verification is not timed).

    Each timed unit records its wall time, its CPU time and the index of
    its first latency, so throughput and CPU per repair can be reported as
    medians over units (:attr:`unit_stats`).  A unit's latencies must be
    added before the next unit starts.
    """

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self._units: list[tuple[float, float, int]] = []
        self.wall_s = 0.0
        self.extra: dict = {}

    def start(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds()
        self._first = len(self.latencies_ms)

    def stop(self, wall_s: float | None = None, cpu_s: float | None = None) -> None:
        """End the unit; ``wall_s`` and ``cpu_s`` override what was measured."""
        wall = time.perf_counter() - self._wall if wall_s is None else wall_s
        cpu = cpu_seconds() - self._cpu if cpu_s is None else cpu_s
        self.wall_s += wall
        self._units.append((wall, cpu, self._first))

    @property
    def unit_stats(self) -> list[tuple[float, float, int]]:
        """``(wall_s, cpu_s, verdicts)`` per timed unit."""
        ends = [first for _, _, first in self._units[1:]] + [len(self.latencies_ms)]
        return [(wall, cpu, end - first) for (wall, cpu, first), end in zip(self._units, ends)]


# -- workloads ----------------------------------------------------------------------------


class Workload:
    name = ""
    #: Whether verdicts are checked against per-job patch digests (the
    #: matrix workloads have them only for the seeds captured in the reference).
    digests_checked = True

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference = reference if reference is not None else load_reference()
        self.checker = Checker(self.reference)
        self.layer_extra: dict[str, float] = {}
        self.unchecked: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run(self, seconds: float) -> Measurement:
        """Repeat units for about ``seconds`` (at least one unit).

        Another unit starts while the timed wall is more than half a unit
        short of ``seconds``, so long units overshoot by half a unit at most.
        """
        measurement = Measurement()
        while not measurement.unit_stats or (
            measurement.wall_s + measurement.unit_stats[-1][0] / 2 < seconds
        ):
            self.unit(measurement, traced=False)
            self.check()
        return measurement

    def run_traced(self, seconds: float) -> tuple[dict, int, float, float]:
        """Alternate untraced/traced units; returns (totals, units, untraced, traced)."""
        totals: dict = {}
        walls = {False: [], True: []}
        while not walls[True] or sum(walls[False]) + sum(walls[True]) < seconds:
            for traced in (False, True):
                unit = Measurement()
                if traced:
                    probe().reset()
                counters = self.unit(unit, traced=traced)
                walls[traced].append(unit.wall_s)
                if traced:
                    layers.merge(totals, probe().snapshot())
                    layers.merge(totals, counters)
                    drop_probe()
                self.check()
        return (
            totals,
            len(walls[True]),
            statistics.median(walls[False]) * 1000.0,
            statistics.median(walls[True]) * 1000.0,
        )

    def unit(self, measurement: Measurement, traced: bool) -> dict:
        """Run one timed unit; returns its layer counters when ``traced``.

        Verdicts go to ``self.unchecked``; :meth:`check` verifies them
        afterwards, outside the timing and the tracing.
        """
        raise NotImplementedError

    def check(self) -> None:
        for item in self.unchecked:
            self.verify(*item)
        self.unchecked = []


class Figure8(Workload):
    """The 18 Figure 8 rows in-process, one fresh session per row, seeded order."""

    name = "figure8"

    def setup(self) -> None:
        from repro.api import RepairRequest, RepairSession
        from repro.apps import get_application
        from repro.core.reporting import TransferRecord
        from repro.experiments import FIGURE8_ROWS

        self._session = RepairSession
        self._record = TransferRecord
        self.requests = [
            RepairRequest.for_case(row.case, donor=get_application(row.donor))
            for row in FIGURE8_ROWS
        ]
        self.cases = figure8_cases()
        self.rng = random.Random(self.seed)
        # Warm-up pass in the paper's order: fills the compile caches.
        self.unchecked = [(RepairSession().run(request),) for request in self.requests]
        self.check()

    def verify(self, report) -> None:
        checker = self.checker
        checker.attempted += 1
        key = outcome_key(report.outcome)
        record = self._record.from_outcome(report.outcome).__dict__
        error = checker.figure8_columns(key, record)
        error = error or checker.figure8_patch(key, report.patched_source, self.cases)
        if error:
            checker.fail(error)

    def unit(self, measurement: Measurement, traced: bool) -> dict:
        order = list(self.requests)
        self.rng.shuffle(order)
        if traced:
            probe()
        counters: dict = {}
        measurement.start()
        for request in order:
            session = self._session()
            began = time.perf_counter()
            report = session.run(request)
            measurement.latencies_ms.append((time.perf_counter() - began) * 1000.0)
            self.unchecked.append((report,))
        measurement.stop()
        if traced:
            for (report,) in self.unchecked:
                layers.stage_times(report.events, counters)
        return counters


def bench_job_runner(
    payload: dict, cache_path, manifest_path: str, *, inner, job_dir: str, traced: bool
) -> dict:
    """``matrix_job_runner`` plus stamps and the captured patch.

    Runs inside the worker process.  Writes ``<job_dir>/<job_id>.json`` with
    the worker-side start/end (``time.monotonic``, one clock for all
    processes), the patched source, and, when traced, the layer counters.
    """
    capture_reports()
    take_captured()
    if traced:
        probe().reset()
    entry = time.monotonic()
    result = inner(payload, cache_path, manifest_path)
    done = time.monotonic()
    reports = take_captured()
    side = {
        "entry": entry,
        "exit": done,
        "patched_source": reports[-1].patched_source if reports else None,
    }
    if traced:
        counters = probe().snapshot()
        layers.stage_times(result.get("events") or [], counters)
        side["counters"] = counters
    path = Path(job_dir) / f"{payload['job_id']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(side))
    os.replace(scratch, path)
    return result


@contextmanager
def matrix_instrumented(job_dir: Path, traced: bool):
    """Route every matrix job through :func:`bench_job_runner`; yield dispatch stamps.

    ``matrix_scheduler_kwargs`` binds the module-level ``matrix_job_runner``
    when it is called, so replacing that name sends ``run_matrix`` and the
    coordinator wiring through the wrapper.  The executors start one worker
    process per job with the job's payload as the second argument; wrapping
    ``Process.start`` in the parent stamps the moment each job is dispatched.
    """
    import multiprocessing.process

    from repro.scenarios import runner as runner_module

    dispatched: dict = {}
    original_runner = runner_module.matrix_job_runner
    original_start = multiprocessing.process.BaseProcess.start

    def start(process) -> None:
        args = getattr(process, "_args", ())
        if len(args) > 1 and isinstance(args[1], dict) and "job_id" in args[1]:
            dispatched.setdefault(args[1]["job_id"], time.monotonic())
        original_start(process)

    runner_module.matrix_job_runner = partial(
        bench_job_runner, inner=original_runner, job_dir=str(job_dir), traced=traced
    )
    multiprocessing.process.BaseProcess.start = start
    try:
        yield dispatched
    finally:
        runner_module.matrix_job_runner = original_runner
        multiprocessing.process.BaseProcess.start = original_start


class Matrix(Workload):
    """The full-hardness generated corpus through ``run_matrix`` (jobs=2).

    A traced run also sends the corpus once through the distributed
    coordinator (2 nodes), for the ``dist`` layer's metrics.
    """

    name = "matrix"

    def setup(self) -> None:
        from repro.scenarios import (
            HARDNESS_DIMENSIONS,
            ScenarioError,
            corpus_plan,
            generate_corpus,
        )

        began = time.perf_counter()
        try:
            self.corpus = generate_corpus(
                seed=self.seed,
                pairs_per_class=PAIRS_PER_CLASS,
                hardness=HARDNESS_DIMENSIONS,
            )
        except ScenarioError as exc:
            raise WorkloadError(f"corpus generation failed for seed {self.seed}: {exc}") from exc
        self.layer_extra["scenarios.generate_ms"] = (time.perf_counter() - began) * 1000.0
        self.plan = corpus_plan(self.corpus)
        self.pairs = {pair.case_id: pair for pair in self.corpus.pairs}
        self.expected = self.reference["matrix"].get(str(self.seed))
        self.digests_checked = self.expected is not None
        self.count = 0

    def run_traced(self, seconds: float) -> tuple[dict, int, float, float]:
        result = super().run_traced(seconds)
        probe().reset()
        counters = self.unit(Measurement(), traced=True, distributed=True)
        drop_probe()
        self.check()
        for key in ("dist.dispatch_overhead_ms", "dist.worker_utilization", "dist.steals"):
            self.layer_extra[key] = counters[key]
        return result

    def execute(self, store_dir: Path, on_result, distributed: bool):
        """One campaign over the corpus: ``run_matrix``, or the coordinator."""
        from repro.campaign.scheduler import SchedulerOptions
        from repro.scenarios import run_matrix

        if not distributed:
            report, _ = run_matrix(
                self.corpus,
                store_dir,
                plan=self.plan,
                options=SchedulerOptions(jobs=SLOTS),
                resume=False,
                on_result=on_result,
            )
            return report
        # The coordinator wiring of ``codephage matrix --nodes``.
        from repro.dist import DistOptions, DistributedCoordinator
        from repro.scenarios import matrix_scheduler_kwargs, prepare_matrix_store

        store, manifest = prepare_matrix_store(self.corpus, self.plan, store_dir, resume=False)
        return DistributedCoordinator(
            self.plan,
            store,
            DistOptions(nodes=SLOTS),
            **matrix_scheduler_kwargs(self.corpus, manifest),
        ).run(on_result=on_result)

    def unit(self, measurement: Measurement, traced: bool, distributed: bool = False) -> dict:
        self.count += 1
        unit_dir = self.workdir / f"unit-{self.count}"
        job_dir = unit_dir / "jobs"
        settled: dict = {}

        def on_result(job, result) -> None:
            settled.setdefault(job.job_id, []).append((time.monotonic(), result))

        if traced:
            probe()  # parent-side spans (store appends); forked workers inherit it
        with matrix_instrumented(job_dir, traced) as dispatched:
            measurement.start()
            began = time.monotonic()
            report = self.execute(unit_dir / "store", on_result, distributed)
            wall = time.monotonic() - began
            measurement.stop()

        counters: dict = {}
        busy = 0.0
        for job in self.plan.jobs:
            side_path = job_dir / f"{job.job_id}.json"
            side = json.loads(side_path.read_text()) if side_path.exists() else None
            attempts = settled.get(job.job_id, [])
            if side is not None:
                busy += side["exit"] - side["entry"]
                if traced:
                    layers.merge(counters, side.get("counters", {}))
            if attempts and job.job_id in dispatched:
                measurement.latencies_ms.append(
                    (attempts[-1][0] - dispatched[job.job_id]) * 1000.0
                )
            self.unchecked.append((job, attempts, side))
        shutil.rmtree(unit_dir)
        jobs = max(1, len(self.plan.jobs))
        layer = "dist" if distributed else "campaign"
        counters[f"{layer}.dispatch_overhead_ms"] = (wall * SLOTS - busy) / jobs * 1000.0
        counters[f"{layer}.worker_utilization"] = busy / (wall * SLOTS) if wall else 0.0
        counters["dist.steals"] = float(
            (report.metrics.get("counters") or {}).get("dist.steals", 0)
        )
        return counters

    def verify(self, job, attempts: list, side) -> None:
        checker = self.checker
        checker.attempted += 1
        pair = self.pairs[job.case_id]
        if not attempts or any(not result.completed for _, result in attempts):
            statuses = [result.status for _, result in attempts]
            checker.fail(f"{job.job_id}: attempts {statuses}", mismatch=False)
            return
        record = attempts[-1][1].record or {}
        validated = bool(record.get("success"))
        if pair.adversarial and validated:
            checker.false_accepts += 1
        if validated == pair.adversarial:
            checker.fail(
                f"{job.job_id} ({pair.hardness}): validated={validated}, "
                f"expected {not pair.adversarial}"
            )
            return
        if not validated:
            return
        source = (side or {}).get("patched_source")
        if source is None:
            checker.fail(f"{job.job_id}: no patched source captured")
            return
        if self.expected is not None and self.expected.get(job.job_id) != sha256(source)[:16]:
            checker.fail(f"{job.job_id}: patched source differs from the reference")
            return
        errors = [pair.error_input(), *pair.probe_inputs()]
        if not checker.replay(
            source, pair.recipient.full_name, pair.format_name, pair.seed_input(), errors
        ):
            checker.fail(f"{job.job_id}: replay of the patched program failed")


def traced_service_runner(manager, state, stamps: dict) -> dict:
    """The daemon's default runner, with start/end stamps per job."""
    from repro.service import default_service_runner

    entry = time.monotonic()
    try:
        return default_service_runner(manager, state)
    finally:
        stamps[state.job_id] = (entry, time.monotonic())


class DaemonProcess:
    """A ``perfbench/daemon.py`` process: the service under test."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        from repro.service import ServiceClient

        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(HERE / "daemon.py"), "--workdir", str(workdir)]
        self.process = subprocess.Popen(
            command + (["--trace"] if traced else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        name = self.process.stdout.readline().strip()
        if not name:
            self.process.wait(timeout=30)
            raise WorkloadError(f"repair daemon exited with code {self.process.returncode}")
        unixhttp.install_client()
        self.client = ServiceClient(unixhttp.base_url(name))

    def start_window(self) -> None:
        self.process.stdin.write("reset\n")
        self.process.stdin.flush()
        self.process.stdout.readline()

    def stop(self) -> dict:
        """End the window, stop the daemon, and return its window record."""
        if self.process.poll() is None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        path = self.workdir / "daemon.json"
        return json.loads(path.read_text()) if path.exists() else {}

    def records(self) -> dict:
        from repro.campaign.store import RunStore

        return RunStore(self.workdir / "store").results()


class Service(Workload):
    """An open loop of Figure 8 transfer jobs against a ``RepairDaemon`` process."""

    name = "service"

    def setup(self) -> None:
        from repro.experiments import FIGURE8_ROWS

        self.rows = list(FIGURE8_ROWS)
        self.cases = figure8_cases()
        self.rng = random.Random(self.seed)
        self.daemons: list[DaemonProcess] = []
        self.daemon = self.boot(traced=False)

    def boot(self, traced: bool) -> DaemonProcess:
        """Start a daemon process and warm it up with every row once."""
        daemon = DaemonProcess(self.workdir / f"daemon-{len(self.daemons)}", traced)
        self.daemons.append(daemon)
        client = daemon.client
        for start in range(0, len(self.rows), SLOTS):
            try:
                ids = [
                    client.submit({"kind": "transfer", "case": row.case_id, "donor": row.donor})[
                        "job_id"
                    ]
                    for row in self.rows[start : start + SLOTS]
                ]
                states = [client.wait(job_id, timeout=60.0, poll_s=0.01) for job_id in ids]
            except Exception as exc:
                raise WorkloadError(f"warm-up failed: {type(exc).__name__}: {exc}") from exc
            for state in states:
                if state["status"] != "done" or not state["success"]:
                    raise WorkloadError(f"warm-up job ended {state}")
        daemon.start_window()
        return daemon

    def close(self) -> None:
        for daemon in getattr(self, "daemons", []):
            daemon.stop()

    def whole_passes(self, seconds: float) -> int:
        """Requests for about ``seconds`` at ``SERVICE_RATE``, in whole passes of the rows.

        Whole passes keep the mix of rows, and so the latency percentiles,
        the same for every seed: the seed only orders each pass.
        """
        passes = max(1, round(seconds * SERVICE_RATE / len(self.rows)))
        return passes * len(self.rows)

    def sequence(self, count: int) -> list:
        rows: list = []
        while len(rows) < count:
            batch = list(self.rows)
            self.rng.shuffle(batch)
            rows.extend(batch)
        return rows[:count]

    def open_loop(self, client, count: int) -> dict:
        """Submit ``count`` jobs at ``SERVICE_RATE``; wait for every verdict."""
        import http.client

        from repro.service import ServiceError

        # What a call to the daemon can raise: an error status, or a
        # connection or response that broke (ValueError: unreadable JSON).
        client_errors = (ServiceError, OSError, http.client.HTTPException, ValueError)
        rows = self.sequence(count)
        due = {}
        submitted = {}
        terminal = {}
        rejected = []
        poll_errors: list = []
        rtts = []
        lateness = []
        lock = threading.Lock()
        pending: list = []
        finished = threading.Event()
        drained_by = [math.inf]

        def poll() -> None:
            while True:
                with lock:
                    current = list(pending)
                    done_submitting = finished.is_set()
                if done_submitting and not current:
                    return
                if time.monotonic() > drained_by[0]:
                    return  # the jobs still pending count as failed
                # The queue is FIFO and SLOTS workers run jobs, so only the
                # SLOTS oldest unfinished jobs can finish next: polling just
                # those keeps the poller's load flat when a backlog builds.
                for job_id in current[:SLOTS]:
                    try:
                        state = client.job(job_id)
                    except client_errors as exc:
                        # A failed poll is the generator's observation, not
                        # a repair: note it and poll again on the next tick.
                        poll_errors.append(f"{job_id}: {type(exc).__name__}: {exc}")
                        continue
                    if state["status"] in ("done", "error", "crashed", "timeout"):
                        terminal[job_id] = (time.monotonic(), state)
                        with lock:
                            pending.remove(job_id)
                time.sleep(SERVICE_POLL_S)

        poller = threading.Thread(target=poll, name="bench-poller")
        poller.start()
        start = time.monotonic() + 0.05
        try:
            for index, row in enumerate(rows):
                when = start + index / SERVICE_RATE
                delay = when - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                lateness.append(max(0.0, sent - when) * 1000.0)
                try:
                    state = client.submit(
                        {"kind": "transfer", "case": row.case_id, "donor": row.donor}
                    )
                except client_errors as exc:
                    rejected.append(f"{row.case_id}/{row.donor}: {type(exc).__name__}: {exc}")
                    continue
                rtts.append((time.monotonic() - sent) * 1000.0)
                due[state["job_id"]] = when
                submitted[state["job_id"]] = sent
                with lock:
                    pending.append(state["job_id"])
        finally:
            drained_by[0] = time.monotonic() + SERVICE_DRAIN_S
            finished.set()
            poller.join()
        end = max((stamp for stamp, _ in terminal.values()), default=time.monotonic())
        return {
            "due": due,
            "submitted": submitted,
            "terminal": terminal,
            "rejected": rejected,
            "poll_errors": poll_errors,
            "rtts": rtts,
            "lateness": lateness,
            "wall": end - start,
            "count": count,
        }

    def window(self, daemon: DaemonProcess, count: int, measurement: Measurement) -> dict:
        """One timed open-loop window, then the daemon's record and the checks."""
        measurement.start()
        generator_cpu = cpu_seconds()
        window = self.open_loop(daemon.client, count)
        generator_cpu = cpu_seconds() - generator_cpu
        record = daemon.stop()
        # The window runs from the first due time to the last verdict; its
        # CPU time is the generator's plus the daemon's own for the window.
        measurement.stop(wall_s=window["wall"], cpu_s=generator_cpu + record.get("cpu_s", 0.0))
        checker = self.checker
        checker.attempted += count
        for message in window["rejected"]:
            checker.fail(f"refused: {message}", mismatch=False)
        # Reports come from the worker threads without job ids; a row whose
        # patch is wrong fails every job of that row.
        bad_patches = {}
        for key, source in record.get("patches", []):
            error = checker.figure8_patch(key, source, self.cases)
            if error:
                bad_patches[key] = error
        records = daemon.records()
        for job_id, when in window["due"].items():
            if job_id not in window["terminal"]:
                checker.fail(
                    f"{job_id}: no terminal status {SERVICE_DRAIN_S:.0f} s after the last request",
                    mismatch=False,
                )
                continue
            stamp, state = window["terminal"][job_id]
            measurement.latencies_ms.append((stamp - when) * 1000.0)
            result = records.get(job_id)
            if state["status"] != "done" or result is None or not result.record:
                checker.fail(f"{job_id}: ended {state['status']} {state['error']}", mismatch=False)
                continue
            record_key = "|".join(
                result.record[name] for name in ("recipient", "target", "donor")
            )
            error = checker.figure8_columns(record_key, result.record)
            if error or record_key in bad_patches:
                checker.fail(f"{job_id}: {error or bad_patches[record_key]}")
        window["daemon"] = record
        return window

    def run(self, seconds: float) -> Measurement:
        measurement = Measurement()
        window = self.window(self.daemon, self.whole_passes(seconds), measurement)
        measurement.extra = {
            "generator_late_ms_max": max(window["lateness"], default=0.0),
            "generator_late_ms_p90": percentile(window["lateness"], 0.9),
            "rate_per_s": SERVICE_RATE,
            "poll_errors": window["poll_errors"][:20],
        }
        return measurement

    def run_traced(self, seconds: float) -> tuple[dict, int, float, float]:
        """An untraced half window, then a traced half window on a traced daemon."""
        count = self.whole_passes(seconds / 2)
        plain = Measurement()
        self.window(self.daemon, count, plain)
        self.rng = random.Random(self.seed)
        traced = Measurement()
        window = self.window(self.boot(traced=True), count, traced)
        record = window["daemon"]
        stamps = record.get("stamps", {})
        queue_waits = [
            (stamps[job_id][0] - window["submitted"][job_id]) * 1000.0
            for job_id in window["due"]
            if job_id in stamps
        ]
        runs = [(end - begin) * 1000.0 for begin, end in stamps.values()]
        self.layer_extra.update(
            {
                "service.submit_rtt_ms": statistics.median(window["rtts"]) if window["rtts"] else 0.0,
                "service.queue_wait_ms": statistics.median(queue_waits) if queue_waits else 0.0,
                "service.run_ms": statistics.median(runs) if runs else 0.0,
                "service.rejected": float(len(window["rejected"])),
                "service.generator_late_ms": max(window["lateness"], default=0.0),
            }
        )
        return (
            record.get("counters", {}),
            1,
            statistics.median(plain.latencies_ms),
            statistics.median(traced.latencies_ms),
        )


WORKLOADS = {cls.name: cls for cls in (Figure8, Matrix, Service)}
