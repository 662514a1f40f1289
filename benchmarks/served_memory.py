"""Served memory slope: what a durable ``repro serve`` keeps per process.

Serves two in-process grounded sessions on a log store, one fresh
interpreter each: 1,000 and 8,000 waited single-process submits on the
benchmark's grounded catalog (``bench/workloads.py``,
``grounded_closed``), then one ``check``.  Prints each session's peak
RSS, trace counts and what the ``check`` cost, then the slope between
the two peaks, and exits nonzero when

* the slope is over ``MAX_SLOPE`` MB per 1,000 processes (the trace
  left memory: 0.33-0.34 measured on a 2-CPU host, 1.38-1.40 when the
  recorder kept every event), or
* the trace events held in memory at the end outnumber the largest
  frame a snapshot wrote (the recorder keeps at most one snapshot
  cadence of events), or
* the one ``check`` each session ends with takes over ``MAX_CHECK_MS``
  or lifts the peak by over ``MAX_CHECK_MB`` (it reads the verdict the
  recorder carries: 1.6 ms and no added peak at 8,000 processes on a
  2-CPU host, against 71 s and 912 MB when it rebuilt and re-swept the
  whole schedule).

Run from the repository root::

    PYTHONPATH=src python benchmarks/served_memory.py

(``--session N`` runs one session and prints its JSON line.)
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time

SIZES = (1_000, 8_000)
MAX_SLOPE = 0.6
MAX_CHECK_MS = 50.0
MAX_CHECK_MB = 1.0


def _peak_mb() -> float:
    """This interpreter's peak RSS (VmHWM; ru_maxrss is in KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def session(processes: int) -> dict:
    """One session of ``processes`` waited submits, measured in this
    interpreter."""
    from repro.server.service import ProcessLockingService, ServiceConfig
    from repro.sim.workload import WorkloadSpec
    from repro.storage.journal import TRACE

    spec = WorkloadSpec(
        n_processes=8,
        n_activity_types=12,
        conflict_density=0.3,
        failure_probability=0.04,
        grounded=True,
        seed=3,
    )
    with tempfile.TemporaryDirectory(prefix="served-memory-") as path:
        service = ProcessLockingService(
            ServiceConfig(
                spec=spec,
                seed=3,
                store="log",
                store_path=path,
                store_fsync="never",
            )
        ).start()
        try:
            for k in range(processes):
                service.execute(
                    {"cmd": "submit", "program": k, "wait": True}
                ).result(timeout=60)
            peak_mb = _peak_mb()
            started = time.perf_counter()
            service.execute({"cmd": "check"}).result(timeout=600)
            check_ms = (time.perf_counter() - started) * 1_000
            check_added_mb = _peak_mb() - peak_mb
            trace = service.manager.trace
            frames = service.store.backend.read_all("trace")
            return {
                "processes": processes,
                "peak_mb": round(peak_mb, 2),
                "trace_events": len(trace),
                "resident_events": len(trace.events),
                "largest_frame": max(
                    len(TRACE.decode(frame)["events"]) for frame in frames
                ),
                "check_ms": round(check_ms, 2),
                "check_added_mb": round(check_added_mb, 2),
            }
        finally:
            service.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--session", type=int, default=None)
    args = parser.parse_args()
    if args.session is not None:
        print(json.dumps(session(args.session)))
        return 0
    runs = []
    for processes in SIZES:
        out = subprocess.run(
            [sys.executable, __file__, "--session", str(processes)],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        runs.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(runs[-1]))
    small, large = runs
    slope = (large["peak_mb"] - small["peak_mb"]) / (
        (large["processes"] - small["processes"]) / 1_000
    )
    print(f"served RSS slope: {slope:.2f} MB per 1,000 processes")
    failed = False
    if slope > MAX_SLOPE:
        print(f"FAIL: slope over {MAX_SLOPE} MB per 1,000 processes")
        failed = True
    for run in runs:
        if run["resident_events"] > run["largest_frame"]:
            print(
                f"FAIL: {run['resident_events']} trace events in memory "
                f"after {run['processes']} processes, over one snapshot's "
                f"{run['largest_frame']}"
            )
            failed = True
        print(
            f"check after {run['processes']} processes: "
            f"{run['check_ms']:.2f} ms, +{run['check_added_mb']:.2f} MB peak"
        )
        if (
            run["check_ms"] > MAX_CHECK_MS
            or run["check_added_mb"] > MAX_CHECK_MB
        ):
            print(
                f"FAIL: check over {MAX_CHECK_MS:g} ms or "
                f"{MAX_CHECK_MB:g} MB of added peak"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
