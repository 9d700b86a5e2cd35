"""Multiprocess campaign scheduler with retry, timeout, and resume.

The scheduler owns the control plane of a campaign: it launches each pending
job in its own worker process (up to ``jobs`` concurrently), collects results,
and appends every attempt to the :class:`RunStore`.  Workers are isolated
processes, so a crashing transfer (or one killed by the per-job timeout)
cannot take the campaign down — the attempt is recorded and the job retried
up to ``retries`` extra times (crashes, timeouts, and runner exceptions all
count as failed attempts).

Result transport is split in two to stay robust against ``terminate()``:

* the *payload* (the transfer record, arbitrarily large) is written to a
  per-attempt file in the store's ``outbox/`` directory via atomic rename;
* the *doorbell* (job id, attempt, ok/error) goes over a shared queue as a
  small fixed-size message — well under ``PIPE_BUF``, so a worker killed
  mid-send cannot leave a torn pickle frame that poisons the queue.

The outbox file, not the queue message, is the ground truth for a worker
that exited cleanly: if the doorbell is lost or late, the scheduler recovers
the result from the file instead of misclassifying the job as crashed.

Dispatch is event-driven: the scheduler fills every free slot, then blocks
on the running workers' process sentinels until one exits or the earliest
per-attempt deadline passes.  A worker rings its doorbell before it exits,
so each wake-up settles the finished jobs and refills their slots at once —
there is no poll interval between a job's exit and its successor's start.

Retry semantics
---------------

A job gets ``1 + retries`` attempts.  Crashes (non-zero worker exit),
per-attempt timeouts, runner exceptions, and unreadable result payloads all
count as failed attempts; *every* attempt — including the failed ones — is
appended to the store, so a resumed run sees the full history.  Retried jobs
go to the back of the pending queue (other jobs are not starved behind a
flapping one), and ``timeout_s`` bounds each attempt individually, so a job
with retries may run for ``(1 + retries) * timeout_s`` of wall clock in
total.  A job is *failed* for this run only when its attempt budget is
exhausted; a later ``run()`` against the same store starts a fresh budget.

Resume semantics
----------------

``run()`` asks the store for completed job ids up front and never launches
those jobs again — resume is skip-by-id, there is no in-flight state to
reconstruct.  Jobs that were running when a previous campaign died simply
have no completion record and run again from scratch.  The ``outbox/``
scratch directory is wiped at startup: payload files from a killed run are
unreadable-by-design remnants whose doorbell never fired, and their jobs
will be re-attempted anyway.

Only the scheduler writes ``records.jsonl``.  The one multi-writer file is
the persistent solver cache, which is designed for concurrent appends (see
:mod:`repro.campaign.cache`); workers attach to it via the cache path the
scheduler passes down, and their verdicts are namespaced by solver options
so different option variants never replay each other's results (see
:mod:`repro.solver.equivalence`).  Under ``fork`` the workers inherit a warm
cache: the scheduler keeps one instance loaded, refreshes it (reading only
the bytes appended since its last read) just before each fork, and the
worker adopts it for the cache path instead of re-reading the whole file.
Misses still pick up sibling workers' later appends.  Spawned workers open
the file themselves.

The worker entry point is :func:`repro.experiments.execute_job`, which runs
each transfer through the :mod:`repro.api` facade — the scheduler knows
nothing about pipeline stages; the per-stage timing breakdown each worker
reports (``stage_timings`` on the record) is persisted with every attempt
and aggregated into the :class:`CampaignReport`.  Tests inject a stub
``runner`` (any module-level callable with the same signature) to exercise
scheduling policies without running real transfers.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Optional

from ..obs import metrics as obs_metrics
from .cache import PersistentSolverCache, adopt_solver_cache
from .execution import (
    AttemptLedger,
    ClassAccountant,
    account_completed,
    account_skipped,
    discard_payload,
    payload_exists,
    read_payload,
    remove_outbox,
    reset_outbox,
    write_payload,
)
from .plan import CampaignPlan, JobSpec
from .store import (
    STATUS_CRASHED,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    JobResult,
    RunStore,
)

#: A runner maps (job payload, persistent cache path) -> result payload with
#: a ``record`` dict and an ``elapsed_s`` float.  Must be picklable
#: (module-level) so it survives non-fork start methods.
Runner = Callable[[dict, Optional[str]], dict]


def default_job_runner(payload: dict, cache_path: Optional[str]) -> dict:
    """Run one real transfer; executed inside a worker process.

    Besides the record, the payload ships the job's serialized event stream
    (persisted to the store's ``events/`` directory for ``codephage trace``
    and ``codephage bundle``) and a per-job metrics snapshot: the worker's
    registry is reset and enabled around the transfer, so the snapshot is
    exactly this attempt's counters even under fork-started workers that
    inherit parent registry state.
    """
    from ..core.events import events_as_dicts
    from ..core.reporting import TransferRecord
    from ..experiments import execute_job_report

    job = JobSpec.from_dict(payload)
    obs_metrics.REGISTRY.reset()
    obs_metrics.REGISTRY.enable()
    start = time.perf_counter()
    report = execute_job_report(job, persistent_cache_path=cache_path)
    record = TransferRecord.from_outcome(report.outcome)
    return {
        "record": asdict(record),
        "elapsed_s": time.perf_counter() - start,
        "events": events_as_dicts(report.events),
        "metrics": obs_metrics.REGISTRY.snapshot(),
    }


def _worker_main(
    runner: Runner,
    payload: dict,
    cache_path: Optional[str],
    results,
    attempt: int,
    outbox: str,
    inherited: Optional[PersistentSolverCache] = None,
) -> None:
    # ``payload`` stays the second argument: dispatch observers read the job
    # id from ``Process._args[1]``.  New arguments go at the end.
    if inherited is not None:
        adopt_solver_cache(inherited)
    job_id = payload.get("job_id", "")
    try:
        result = runner(payload, cache_path)
        write_payload(outbox, job_id, attempt, result)
        message = {
            "job_id": job_id,
            "attempt": attempt,
            "ok": True,
            "elapsed_s": result.get("elapsed_s", 0.0),
        }
    except Exception as exc:  # noqa: BLE001 - report, parent decides on retry
        message = {
            "job_id": job_id,
            "attempt": attempt,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}"[:300],
        }
    results.put(message)


@dataclass
class SchedulerOptions:
    """Control-plane knobs."""

    jobs: int = 1
    timeout_s: Optional[float] = None   # per-attempt wall-clock limit
    retries: int = 1                    # extra attempts after crash/timeout/error
    start_method: Optional[str] = None  # default: fork when available
    use_persistent_cache: bool = True


@dataclass
class CampaignReport:
    """What one scheduler run did, plus aggregate solver accounting."""

    plan_name: str
    total_jobs: int
    completed: int = 0          # jobs newly completed by this run
    skipped: int = 0            # jobs already completed when the run started
    failed: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    cache_enabled: bool = True
    solver_queries: int = 0
    solver_cache_hits: int = 0
    persistent_cache_hits: int = 0
    expensive_queries: int = 0
    batch_hits: int = 0
    #: Wall time per pipeline stage, summed over every completed job (the
    #: per-job deltas are persisted with each attempt record in the store).
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Per-backend solver counters summed over every completed job, keyed by
    #: backend name ("cdcl", "dpll", "portfolio"): queries, sat/unsat/unknown
    #: verdicts, conflicts, learned clauses, wall time, portfolio wins.
    backend_stats: dict[str, dict] = field(default_factory=dict)
    #: Per-class transfer accounting, populated only when the scheduler was
    #: given a ``job_class`` mapping (the scenario matrix maps each job to
    #: its :class:`~repro.lang.trace.ErrorKind`): class name -> counters
    #: ``jobs`` (settled this run or skipped as already done), ``completed``,
    #: ``validated`` (completed with a successful transfer), ``failed``.
    #: Skipped jobs contribute their stored record's verdict, so a resumed
    #: matrix reports the same rates as an uninterrupted one.
    class_stats: dict[str, dict] = field(default_factory=dict)
    #: Merged worker telemetry (a :mod:`repro.obs.metrics` snapshot —
    #: counters add, gauges keep the peak, histograms merge) plus the
    #: scheduler's own control-plane gauges (peak queue depth, worker
    #: utilization).  Empty when workers ship no snapshots (stub runners).
    metrics: dict = field(default_factory=dict)

    def class_success_rates(self) -> dict[str, float]:
        """Validated-transfer rate per class (0.0 when nothing settled)."""
        return {
            name: (counters["validated"] / counters["jobs"]) if counters["jobs"] else 0.0
            for name, counters in self.class_stats.items()
        }

    def false_accept_rate(self) -> Optional[float]:
        """Share of adversarial near-miss donors that validated anyway.

        Adversarial jobs register a donor whose check *looks* protective but
        is off-by-one or wrong-bound; a sound validation rejects every one,
        so this rate's target is 0.0.  ``None`` when the run had no
        adversarial jobs (the rate is then meaningless, not perfect).
        """
        counters = self.class_stats.get("hardness:adversarial")
        if not counters or not counters["jobs"]:
            return None
        return counters["validated"] / counters["jobs"]

    @property
    def persistent_hit_rate(self) -> float:
        if not self.solver_queries:
            return 0.0
        return self.persistent_cache_hits / self.solver_queries

    def summary(self) -> str:
        parts = [
            f"{self.completed} completed",
            f"{self.skipped} skipped (already done)",
            f"{len(self.failed)} failed",
            f"{self.elapsed_s:.2f}s",
        ]
        if self.cache_enabled:
            cache = (
                f"persistent solver cache: {self.persistent_cache_hits}/"
                f"{self.solver_queries} hits ({self.persistent_hit_rate:.1%}), "
                f"{self.expensive_queries} expensive queries"
            )
        else:
            cache = (
                f"persistent solver cache: disabled, "
                f"{self.expensive_queries} expensive queries"
            )
        lines = [f"campaign {self.plan_name}: " + ", ".join(parts), cache]
        if self.batch_hits:
            lines.append(f"query batch: {self.batch_hits} deduped queries")
        counters = self.metrics.get("counters") or {}
        gauges = self.metrics.get("gauges") or {}
        if counters:
            lines.append(
                f"telemetry: {int(counters.get('pipeline.donor_attempts', 0))} donor "
                f"attempts, {int(counters.get('solver.queries', 0))} solver queries, "
                f"{int(counters.get('vm.instructions_retired', 0))} VM instructions "
                "retired"
            )
        if counters.get("vm.runs"):
            compiles = int(counters.get("vm.compiles", 0))
            cache_hits = int(counters.get("vm.compile_cache_hits", 0))
            lines.append(
                f"execution tiers: {int(counters.get('vm.runs_compiled', 0))} "
                f"compiled / {int(counters.get('vm.runs_interpreted', 0))} "
                f"interpreted runs, compile cache {cache_hits} hits / "
                f"{compiles} compiles"
            )
        if "campaign.worker_utilization" in gauges:
            lines.append(
                f"workers: {gauges['campaign.worker_utilization']:.0%} utilized, "
                f"peak queue depth {int(gauges.get('campaign.queue_depth_peak', 0))}"
            )
        if "dist.nodes" in gauges:
            lines.append(
                f"distributed: {int(gauges['dist.nodes'])} nodes, "
                f"{int(counters.get('dist.steals', 0))} steals, "
                f"{int(counters.get('dist.jobs_reassigned', 0))} jobs re-rung "
                f"after {int(counters.get('dist.node_failures', 0))} node "
                f"failures, cache {int(counters.get('dist.cache_local_hits', 0))} "
                f"local / {int(counters.get('dist.cache_remote_hits', 0))} remote "
                f"hits, {int(counters.get('dist.cache_hops', 0))} hops"
            )
        if self.stage_timings:
            breakdown = ", ".join(
                f"{stage} {elapsed:.2f}s"
                for stage, elapsed in sorted(
                    self.stage_timings.items(), key=lambda item: -item[1]
                )
            )
            lines.append(f"per-stage time (all jobs): {breakdown}")
        for name in sorted(self.backend_stats):
            counters = self.backend_stats[name]
            detail = (
                f"backend {name}: {counters.get('queries', 0)} queries "
                f"({counters.get('sat', 0)} sat, {counters.get('unsat', 0)} unsat, "
                f"{counters.get('unknown', 0)} unknown), "
                f"{counters.get('conflicts', 0)} conflicts, "
                f"{counters.get('learned_clauses', 0)} learned, "
                f"{counters.get('time_s', 0.0):.2f}s"
            )
            if counters.get("wins"):
                detail += f", {counters['wins']} portfolio wins"
            lines.append(detail)
        for name in sorted(self.class_stats):
            counters = self.class_stats[name]
            lines.append(
                f"class {name}: {counters['validated']}/{counters['jobs']} "
                f"transfers validated"
                + (f", {counters['failed']} failed" if counters["failed"] else "")
            )
        false_accepts = self.false_accept_rate()
        if false_accepts is not None:
            lines.append(
                f"false-accept rate (near-miss donors validated): {false_accepts:.1%}"
            )
        return "\n".join(lines)


@dataclass
class _Running:
    process: multiprocessing.Process
    job: JobSpec
    attempt: int
    started_at: float


class CampaignScheduler:
    """Schedules a plan's pending jobs over a pool of worker processes."""

    def __init__(
        self,
        plan: CampaignPlan,
        store: RunStore,
        options: Optional[SchedulerOptions] = None,
        runner: Runner = default_job_runner,
        job_class: Optional[object] = None,
    ) -> None:
        self.plan = plan
        self.store = store
        self.options = options or SchedulerOptions()
        self.runner = runner
        # job_class maps a job to its reporting class (the scenario matrix
        # passes each case's ErrorKind): either a callable over JobSpec or a
        # mapping keyed by case id.  Runs in the parent process only.
        self._accountant = ClassAccountant(job_class)

    # -- public API ------------------------------------------------------------------

    def run(self, on_result: Optional[Callable[[JobSpec, JobResult], None]] = None) -> CampaignReport:
        """Run every pending job; returns the report for *this* invocation."""
        start = time.perf_counter()
        stored = self.store.results()
        completed_before = {
            job_id for job_id, result in stored.items() if result.completed
        }
        pending = deque(
            job for job in self.plan.jobs if job.job_id not in completed_before
        )
        report = CampaignReport(
            plan_name=self.plan.name,
            total_jobs=len(self.plan.jobs),
            skipped=len(self.plan.jobs) - len(pending),
            cache_enabled=self.options.use_persistent_cache,
        )
        if report.skipped:
            # Skipped jobs still count toward per-class rates: take their
            # verdict from the stored record so a resumed run reports the
            # same rates as an uninterrupted one.
            account_skipped(report, self.plan, stored, self._accountant)
        cache_path = (
            str(self.store.cache_path) if self.options.use_persistent_cache else None
        )
        outbox = reset_outbox(self.store)  # leftovers from a killed run

        method = self.options.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        ctx = multiprocessing.get_context(method)
        # Fork-started workers inherit this warm cache instead of re-reading
        # the whole file per job (spawned ones open the file themselves).
        inherited = (
            PersistentSolverCache(cache_path)
            if cache_path is not None and method == "fork"
            else None
        )
        results: multiprocessing.Queue = ctx.Queue()
        running: dict[str, _Running] = {}
        ledger = AttemptLedger(self.options.retries)
        slots = max(1, self.options.jobs)
        # Control-plane telemetry: peak depth/occupancy and total worker-busy
        # seconds (for the utilization gauge folded into report.metrics).
        peak = {"queue": 0, "workers": 0}
        busy = {"s": 0.0}

        def finish(entry: _Running, result: JobResult) -> None:
            """Record one settled attempt and decide what happens next."""
            busy["s"] += time.perf_counter() - entry.started_at
            self.store.append(result)
            if result.completed:
                account_completed(report, result)
                report.completed += 1
                self._accountant.account(
                    report, entry.job, completed=True,
                    success=bool((result.record or {}).get("success")),
                )
            elif not ledger.exhausted(entry.job.job_id):
                # Retries go to the back of the queue: other jobs are not
                # starved behind a flapping one.
                pending.append(entry.job)
            else:
                report.failed.append(entry.job.job_id)
                self._accountant.account(report, entry.job, completed=False)
            if on_result is not None:
                on_result(entry.job, result)

        def settle(entry: _Running, ok: bool, elapsed_s: float, error: str) -> None:
            running.pop(entry.job.job_id, None)
            entry.process.join(timeout=5)
            if ok:
                try:
                    payload = read_payload(outbox, entry.job.job_id, entry.attempt)
                except (OSError, json.JSONDecodeError) as exc:
                    finish(
                        entry,
                        JobResult(
                            job_id=entry.job.job_id,
                            status=STATUS_ERROR,
                            attempt=entry.attempt,
                            error=f"result payload unreadable: {exc}",
                        ),
                    )
                    return
                finally:
                    discard_payload(outbox, entry.job.job_id, entry.attempt)
                events = payload.get("events") or []
                if events:
                    self.store.write_events(entry.job.job_id, events)
                snapshot = payload.get("metrics")
                if snapshot:
                    obs_metrics.merge_snapshots(report.metrics, snapshot)
                finish(
                    entry,
                    JobResult(
                        job_id=entry.job.job_id,
                        status=STATUS_DONE,
                        attempt=entry.attempt,
                        elapsed_s=elapsed_s or payload.get("elapsed_s", 0.0),
                        record=payload.get("record"),
                    ),
                )
            else:
                discard_payload(outbox, entry.job.job_id, entry.attempt)
                finish(
                    entry,
                    JobResult(
                        job_id=entry.job.job_id,
                        status=STATUS_ERROR,
                        attempt=entry.attempt,
                        error=error,
                    ),
                )

        def handle(message: dict) -> None:
            entry = running.get(message.get("job_id", ""))
            if entry is None or message.get("attempt") != entry.attempt:
                # No live attempt, or a doorbell from an attempt already
                # written off (e.g. terminated for timeout after it rang):
                # drop it — and its payload — rather than crediting the
                # currently running attempt with a stale record.
                job_id = message.get("job_id", "")
                attempt = message.get("attempt")
                if job_id and isinstance(attempt, int):
                    discard_payload(outbox, job_id, attempt)
                return
            settle(
                entry,
                ok=bool(message.get("ok")),
                elapsed_s=message.get("elapsed_s", 0.0),
                error=message.get("error", ""),
            )

        def drain(block_s: float = 0.0, awaiting: str = "") -> None:
            """Handle every queued doorbell; wait up to ``block_s`` for ``awaiting``'s."""
            deadline = time.perf_counter() + block_s
            while True:
                remaining = deadline - time.perf_counter()
                try:
                    if remaining > 0 and awaiting in running:
                        message = results.get(timeout=remaining)
                    else:
                        message = results.get_nowait()
                except queue_module.Empty:
                    return
                handle(message)

        while pending or running:
            # Refill every free slot before blocking: a settled job's slot is
            # reused at once, not after a poll interval.
            while pending and len(running) < slots:
                job = pending.popleft()
                attempt = ledger.begin(job.job_id)
                if inherited is not None:
                    inherited.refresh()  # reads only what workers appended since
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        self.runner,
                        job.to_dict(),
                        cache_path,
                        results,
                        attempt,
                        str(outbox),
                        inherited,
                    ),
                    daemon=True,
                )
                process.start()
                running[job.job_id] = _Running(process, job, attempt, time.perf_counter())

            peak["queue"] = max(peak["queue"], len(pending))
            peak["workers"] = max(peak["workers"], len(running))
            # Live readings for progress observers (no-ops while disabled).
            obs_metrics.set_gauge("campaign.queue_depth", len(pending))
            obs_metrics.set_gauge("campaign.workers_active", len(running))

            # Block until a worker exits or the earliest attempt deadline
            # passes.  A worker rings its doorbell before it exits, so the
            # drain below finds the doorbell of every cleanly exited worker.
            block_s = None
            if self.options.timeout_s is not None:
                earliest = min(entry.started_at for entry in running.values())
                block_s = max(
                    0.0, earliest + self.options.timeout_s - time.perf_counter()
                )
            exited = set(
                wait([entry.process.sentinel for entry in running.values()], block_s)
            )
            drain()
            for job_id, entry in list(running.items()):
                if job_id not in running:
                    continue  # resolved by a drain() earlier in this scan
                # Recomputed per entry: an earlier blocking drain in this
                # scan must not let other workers overrun their deadline.
                now = time.perf_counter()
                timed_out = (
                    self.options.timeout_s is not None
                    and now - entry.started_at > self.options.timeout_s
                )
                alive = entry.process.sentinel not in exited and entry.process.is_alive()
                if timed_out and alive:
                    # A result may have arrived at the deadline; prefer it.
                    drain()
                    if job_id not in running:
                        continue
                    entry.process.terminate()
                    entry.process.join(timeout=1)
                    running.pop(job_id, None)
                    discard_payload(outbox, job_id, entry.attempt)
                    finish(
                        entry,
                        JobResult(
                            job_id=job_id,
                            status=STATUS_TIMEOUT,
                            attempt=entry.attempt,
                            elapsed_s=now - entry.started_at,
                            error=f"timed out after {self.options.timeout_s}s",
                        ),
                    )
                elif not alive:
                    # Reap it first: a closed sentinel can precede the exit
                    # status by a moment, and the status decides what follows.
                    entry.process.join(timeout=5)
                    # The worker exited: give its doorbell a moment to arrive.
                    # Only a clean exit can have rung one, so don't stall the
                    # control loop waiting on a killed worker's silence.
                    drain(
                        block_s=0.25 if entry.process.exitcode == 0 else 0.0,
                        awaiting=job_id,
                    )
                    if job_id not in running:
                        continue
                    # Doorbell lost or late — the outbox file is the ground
                    # truth for a worker that exited cleanly.
                    if entry.process.exitcode == 0 and payload_exists(
                        outbox, job_id, entry.attempt
                    ):
                        settle(entry, ok=True, elapsed_s=0.0, error="")
                        continue
                    running.pop(job_id, None)
                    finish(
                        entry,
                        JobResult(
                            job_id=job_id,
                            status=STATUS_CRASHED,
                            attempt=entry.attempt,
                            error=f"worker exited with code {entry.process.exitcode}",
                        ),
                    )

        results.close()
        remove_outbox(self.store)
        report.elapsed_s = time.perf_counter() - start
        utilization = (
            busy["s"] / (slots * report.elapsed_s) if report.elapsed_s > 0 else 0.0
        )
        obs_metrics.merge_snapshots(
            report.metrics,
            {
                "gauges": {
                    "campaign.queue_depth_peak": peak["queue"],
                    "campaign.workers_active_peak": peak["workers"],
                    "campaign.worker_utilization": round(min(utilization, 1.0), 4),
                }
            },
        )
        return report
