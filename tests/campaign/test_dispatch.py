"""Scheduler dispatch: event-driven slot refill and the fork-inherited cache.

The scheduler blocks on worker exits rather than polling, so a slot freed by
a settled job is refilled before the scheduler blocks again; and fork-started
workers adopt the scheduler's warm solver cache instead of re-reading the
file.  Stub runners report what they observed through probe files next to
the store's solver cache (the parent cannot see a worker's memory).
"""

from __future__ import annotations

import json
import multiprocessing.process
import os
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.campaign.scheduler as scheduler_module
from repro.campaign import (
    CampaignScheduler,
    PersistentSolverCache,
    RunStore,
    SchedulerOptions,
    expand_plan,
    open_solver_cache,
)
from repro.core.reporting import TransferRecord

#: Written to the cache file before the campaign starts.
PRELOADED_KEY = "preloaded"


def _fake_record(payload: dict) -> dict:
    return asdict(
        TransferRecord(
            recipient=payload["case_id"],
            target="site:1",
            donor=payload["donor"],
            success=True,
            generation_time_s=0.0,
            relevant_branches=1,
            flipped_branches="1",
            used_checks=1,
            insertion_points="1 - 0 - 0 = 1",
            check_size="2 -> 1",
        )
    )


def paced_runner(payload: dict, cache_path: str) -> dict:
    """The first job to start holds its slot for a while; the rest are no-ops."""
    claim = Path(cache_path).parent / "slow-claimed"
    try:
        os.close(os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        pass
    else:
        time.sleep(0.4)
    return {"record": _fake_record(payload), "elapsed_s": 0.0}


def cache_probe_runner(payload: dict, cache_path: str) -> dict:
    """Report how this worker's solver cache got its entries."""
    reads: list[int] = []
    refresh = PersistentSolverCache.refresh

    def counting_refresh(self) -> None:
        reads.append(1)
        refresh(self)

    PersistentSolverCache.refresh = counting_refresh  # this worker process only
    cache = open_solver_cache(cache_path)
    preloaded = cache.get(PRELOADED_KEY)
    probe = {
        "preloaded": preloaded,
        "visible": len(cache),
        "reads_before_lookup": len(reads),
    }
    job_id = payload["job_id"]
    cache.put(f"job:{job_id}", {"verdict": "equivalent"})
    # A sibling worker appends after this one started: found on a miss.
    sibling_key = f"sibling:{job_id}"
    with open(cache_path, "a") as handle:
        handle.write(json.dumps({"k": sibling_key, "v": {"verdict": "sibling"}}) + "\n")
    probe["sibling"] = cache.get(sibling_key)
    probe["reads"] = len(reads)
    probes = Path(cache_path).parent / "probes"
    probes.mkdir(exist_ok=True)
    (probes / f"{job_id}.json").write_text(json.dumps(probe))
    return {"record": _fake_record(payload), "elapsed_s": 0.0}


@pytest.fixture
def plan():
    return expand_plan(cases=["cwebp-jpegdec", "swfplay-rgb"], name="dispatch")  # 4 jobs


@pytest.fixture
def store(tmp_path, plan):
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    return run_store


def test_freed_slot_is_refilled_before_the_next_blocking_wait(plan, store, monkeypatch):
    events: list[str] = []
    parent = os.getpid()

    def recorded(name, call):
        def wrapper(*args, **kwargs):
            if os.getpid() == parent:
                events.append(name)
            return call(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess,
        "start",
        recorded("launch", multiprocessing.process.BaseProcess.start),
    )
    # Either blocking primitive counts: a poll-interval sleep or a wait on
    # the workers' sentinels.
    monkeypatch.setattr(time, "sleep", recorded("block", time.sleep))
    if hasattr(scheduler_module, "wait"):
        monkeypatch.setattr(scheduler_module, "wait", recorded("block", scheduler_module.wait))

    report = CampaignScheduler(
        plan, store, SchedulerOptions(jobs=2, start_method="fork"), runner=paced_runner
    ).run(on_result=lambda job, result: events.append("settle"))

    assert report.completed == len(plan) and not report.failed
    assert events.count("launch") == len(plan)
    assert events.count("settle") == len(plan)
    # One slow job holds a slot while the fast ones cycle through the other:
    # each fast job's successor starts before the scheduler blocks again.
    for index, event in enumerate(events):
        if event != "settle" or "launch" not in events[index:]:
            continue
        refill = events.index("launch", index)
        assert "block" not in events[index:refill], events
    assert events.count("block") <= events.count("settle"), events


def _preload(store: RunStore) -> None:
    PersistentSolverCache(store.cache_path).put(PRELOADED_KEY, {"verdict": "preloaded"})


def _probes(store: RunStore, plan) -> list[dict]:
    probes = store.cache_path.parent / "probes"
    return [json.loads((probes / f"{job.job_id}.json").read_text()) for job in plan.jobs]


def _probe_campaign(plan, store, start_method: str) -> list[dict]:
    _preload(store)
    report = CampaignScheduler(
        plan,
        store,
        SchedulerOptions(jobs=1, start_method=start_method),
        runner=cache_probe_runner,
    ).run()
    assert report.completed == len(plan) and not report.failed
    return _probes(store, plan)


def test_forked_worker_inherits_the_warm_cache(plan, store):
    probes = _probe_campaign(plan, store, "fork")
    for index, probe in enumerate(probes):
        # Without reading the file, the worker holds the preloaded entry and
        # both entries of every earlier job: the scheduler refreshed its
        # instance just before the fork.
        assert probe["reads_before_lookup"] == 0
        assert probe["preloaded"] == {"verdict": "preloaded"}
        assert probe["visible"] == 1 + 2 * index
        # A sibling's later append is picked up by one refresh on the miss.
        assert probe["sibling"] == {"verdict": "sibling"}
        assert probe["reads"] == 1


def test_spawned_worker_reads_the_file_and_sees_the_same_entries(tmp_path, plan):
    stores = {}
    for method in ("fork", "spawn"):
        stores[method] = RunStore(tmp_path / method)
        stores[method].initialise(plan)
    forked = _probe_campaign(plan, stores["fork"], "fork")
    spawned = _probe_campaign(plan, stores["spawn"], "spawn")
    for fork_probe, spawn_probe in zip(forked, spawned):
        assert fork_probe["reads_before_lookup"] == 0
        assert spawn_probe["reads_before_lookup"] >= 1  # opened the file itself
        for key in ("preloaded", "visible", "sibling"):
            assert spawn_probe[key] == fork_probe[key]


def test_scheduler_never_adopts_its_cache_in_the_parent(plan, store):
    CampaignScheduler(
        plan, store, SchedulerOptions(jobs=2, start_method="fork"), runner=paced_runner
    ).run()
    path = str(store.cache_path)
    assert open_solver_cache(path) is not open_solver_cache(path)
