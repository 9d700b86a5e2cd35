"""End-to-end campaign runs with real transfers (one error case, 3 donors).

Kept to a single case so the tier-1 suite stays fast; the full Figure-8
campaign is exercised by ``benchmarks/bench_campaign_scaling.py``.
"""

from __future__ import annotations

import dataclasses

from repro.campaign import CampaignScheduler, RunStore, SchedulerOptions, expand_plan
from repro.core.reporting import ResultsDatabase
from repro.experiments import Figure8Row, run_row


def _normalise(record):
    """Strip wall-clock and per-run solver accounting for comparison."""
    return dataclasses.replace(
        record,
        generation_time_s=0.0,
        solver_queries=0,
        solver_cache_hits=0,
        solver_persistent_hits=0,
        solver_expensive_queries=0,
        stage_timings={},
    )


def test_parallel_campaign_matches_serial_run_and_warm_cache_hits(tmp_path):
    plan = expand_plan(cases=["cwebp-jpegdec"], name="integration")

    serial = ResultsDatabase()
    for job in plan.jobs:
        serial.add(run_row(Figure8Row(case_id=job.case_id, donor=job.donor)))

    store = RunStore(tmp_path / "run")
    store.initialise(plan)
    cold = CampaignScheduler(plan, store, SchedulerOptions(jobs=3, start_method="fork")).run()
    assert cold.completed == len(plan)
    assert not cold.failed

    parallel = store.merge_into_database(plan)
    assert [_normalise(r) for r in parallel.records] == [
        _normalise(r) for r in serial.records
    ]

    # Warm re-run (records discarded, cache kept): the persistent cache now
    # answers queries the cold run had to evaluate.
    store.initialise(plan, fresh=True)
    warm = CampaignScheduler(plan, store, SchedulerOptions(jobs=1, start_method="fork")).run()
    assert warm.completed == len(plan)
    assert warm.persistent_cache_hits > cold.persistent_cache_hits
    assert warm.persistent_hit_rate > 0.0
    warm_db = store.merge_into_database(plan)
    assert [_normalise(r) for r in warm_db.records] == [
        _normalise(r) for r in serial.records
    ]


def test_spawned_workers_match_forked_ones_on_a_warm_cache(tmp_path):
    """Forked workers adopt the scheduler's cache; spawned ones read the file."""
    plan = expand_plan(cases=["cwebp-jpegdec"], donors=["feh"], name="start-methods")
    store = RunStore(tmp_path / "run")
    store.initialise(plan)
    CampaignScheduler(plan, store, SchedulerOptions(start_method="fork")).run()

    warm = {}
    for method in ("fork", "spawn"):
        store.initialise(plan, fresh=True)
        report = CampaignScheduler(plan, store, SchedulerOptions(start_method=method)).run()
        assert report.completed == len(plan) and not report.failed
        records = [_normalise(r) for r in store.merge_into_database(plan).records]
        warm[method] = (records, report.persistent_cache_hits)
    assert warm["spawn"] == warm["fork"]
    assert warm["fork"][1] > 0
