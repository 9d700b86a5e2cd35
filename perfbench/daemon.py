"""The repair daemon under test, in its own process, for the ``service`` workload.

Started by the load generator (``workloads.Service``)::

    python3 perfbench/daemon.py --workdir DIR [--trace]

Boots a :class:`repro.service.RepairDaemon` with its default runner (or,
with ``--trace``, the default runner wrapped to stamp each job), its HTTP
server listening on an abstract Unix socket (see ``unixhttp.py``), and
prints the socket's name.  A ``reset`` line on standard input starts the
measured window: the captured reports, stamps, CPU clock and layer counters
are zeroed, and ``ok`` is printed.  End of input ends the window: the daemon
writes ``DIR/daemon.json`` (the window's CPU time, every report's patched
source, the stamps and the layer counters), stops, and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import unixhttp  # noqa: E402
import workloads  # noqa: E402


def own_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.service import RepairDaemon, ServiceConfig, app

    workdir = Path(args.workdir)
    name = unixhttp.socket_name(str(os.getpid()))
    app._ServiceServer = unixhttp.unix_server(app._ServiceServer, name)
    stamps: dict = {}
    runner = partial(workloads.traced_service_runner, stamps=stamps) if args.trace else None
    workloads.capture_reports()
    config = ServiceConfig(
        store_dir=str(workdir / "store"),
        stores_root=str(workdir),
        workers=workloads.SLOTS,
        pool_size=workloads.SLOTS,
    )
    daemon = RepairDaemon(config, runner=runner).start()
    try:
        print(name, flush=True)
        cpu = own_cpu()
        for line in sys.stdin:
            if line.strip() == "reset":
                workloads.take_captured()
                stamps.clear()
                if args.trace:
                    workloads.probe().reset()
                cpu = own_cpu()
                print("ok", flush=True)
        window = {"cpu_s": own_cpu() - cpu, "stamps": stamps}
        reports = workloads.take_captured()
        if args.trace:
            counters = workloads.probe().snapshot()
            for report in reports:
                layers.stage_times(report.events, counters)
            window["counters"] = counters
        window["patches"] = [
            [workloads.outcome_key(report.outcome), report.patched_source] for report in reports
        ]
        (workdir / "daemon.json").write_text(json.dumps(window))
    finally:
        daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
