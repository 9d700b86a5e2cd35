"""Capture the known answers the benchmark checks verdicts against.

Run once, at the commit whose behaviour is the reference::

    python3 perfbench/capture_reference.py

Writes ``perfbench/reference.json``: for every Figure 8 row its
deterministic columns (all but Time) and the SHA-256 of its patched
source; for each matrix seed in ``MATRIX_SEEDS`` that generates, the
verdict of every job (a 16-hex-digit patched-source digest, or null when
the transfer is rejected).  The default and held-out seeds are also run
through the distributed coordinator, and both executors must agree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

MATRIX_SEEDS = range(0, 24)
CROSS_CHECKED_SEEDS = (0, 23)


def figure8() -> dict:
    from repro.api import RepairRequest, RepairSession
    from repro.apps import get_application
    from repro.core.reporting import TransferRecord
    from repro.experiments import FIGURE8_ROWS

    rows = {}
    for row in FIGURE8_ROWS:
        report = RepairSession().run(
            RepairRequest.for_case(row.case, donor=get_application(row.donor))
        )
        record = TransferRecord.from_outcome(report.outcome).__dict__
        key = workloads.outcome_key(report.outcome)
        assert key not in rows, f"duplicate Figure 8 key {key}"
        assert report.success, f"{key} did not validate"
        rows[key] = {
            "row": f"{row.case_id}/{row.donor}",
            "columns": {name: record[name] for name in workloads.FIGURE8_COLUMNS},
            "patch_sha256": workloads.sha256(report.patched_source),
        }
    return rows


def matrix_verdicts(seed: int, workdir: Path, distributed: bool = False) -> dict:
    workload = workloads.Matrix(seed, workdir, reference={"figure8": {}, "matrix": {}})
    workload.setup()
    workload.unit(workloads.Measurement(), traced=False, distributed=distributed)
    sources = {job.job_id: side["patched_source"] for job, _, side in workload.unchecked}
    workload.check()
    checker = workload.checker
    if checker.failed:
        raise SystemExit(f"seed {seed}: {checker.errors}")
    return {
        job.job_id: None
        if workload.pairs[job.case_id].adversarial
        else workloads.sha256(sources[job.job_id])[:16]
        for job in workload.plan.jobs
    }


def main() -> None:
    work = ROOT / ".perfbench-work" / "capture"
    reference = {
        "commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip(),
        "figure8": figure8(),
        "matrix": {},
    }
    for seed in MATRIX_SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        try:
            verdicts = matrix_verdicts(seed, work)
        except workloads.WorkloadError as exc:
            print(f"seed {seed}: not captured ({exc})", flush=True)
            continue
        if seed in CROSS_CHECKED_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            distributed = matrix_verdicts(seed, work, distributed=True)
            assert distributed == verdicts, f"seed {seed}: executors disagree"
        reference["matrix"][str(seed)] = verdicts
        print(f"seed {seed}: {len(verdicts)} verdicts", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
