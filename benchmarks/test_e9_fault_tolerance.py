"""E9 — Fault tolerance: manager crash and recovery.

Sweeps the crash point over a workload's event timeline; after each
crash the manager is recovered from its journal and run to quiescence.
Asserted shape: at *every* crash point the combined schedule is complete
and correct (CT + P-RC), and every process that had passed its point of
no return before the crash commits afterwards (forward recovery of
completing processes — the "guaranteed termination" promise surviving
the PM's own failure).
"""

import pytest

from harness import print_experiment
from repro.process.state import ProcessState
from repro.scheduler.manager import ProcessManager
from repro.scheduler.recovery import crash, recover
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)

SPEC = WorkloadSpec(
    n_processes=8,
    n_activity_types=12,
    conflict_density=0.4,
    failure_probability=0.08,
    pivot_probability=0.8,
)
#: Both runs drain within 70 events; each seed meets a completing
#: process at one of these points, and pids held at the restart gate
#: at most of them.
CRASH_POINTS = [5, 15, 30, 40, 60]
SEEDS = [3, 9]


def run_e9():
    rows = []
    for seed in SEEDS:
        workload = build_workload(SPEC.with_(seed=seed))
        for point in CRASH_POINTS:
            manager = ProcessManager(
                make_protocol("process-locking", workload),
                seed=seed,
            )
            for program in workload.programs:
                manager.submit(program)
            manager.engine.run_steps(point)
            image = crash(manager)
            held = sum(
                bool(manager.held_behind(pid))
                for pid in manager.undecided()
            )
            completing = [
                snap.pid
                for snap in image.snapshots
                if snap.state == ProcessState.COMPLETING.value
            ]
            recovered = recover(
                image,
                make_protocol("process-locking", workload),
                seed=seed,
            )
            result = recovered.run()
            schedule = result.trace.to_schedule(
                workload.conflicts.conflict
            )
            forward_ok = all(
                result.records[pid].committed_at is not None
                for pid in completing
            )
            rows.append(
                {
                    "seed": seed,
                    "crash after": point,
                    "live at crash": len(image.snapshots),
                    "completing at crash": len(completing),
                    "held at crash": held,
                    "forward recovery": forward_ok,
                    "complete": schedule.is_complete,
                    "CT": has_correct_termination(schedule),
                    "P-RC": is_process_recoverable(schedule),
                }
            )
    return rows


@pytest.mark.benchmark(group="experiments")
def test_e9_fault_tolerance(benchmark):
    rows = benchmark.pedantic(run_e9, rounds=1, iterations=1)
    print_experiment(
        "E9: crash-point sweep — recovery correctness and forward "
        "recovery of completing processes", rows,
    )
    assert any(row["completing at crash"] > 0 for row in rows), (
        "the sweep should hit at least one crash with a completing "
        "process to make forward recovery observable"
    )
    assert sum(row["completing at crash"] > 0 for row in rows) >= 2
    assert any(row["held at crash"] > 0 for row in rows)
    for row in rows:
        assert row["live at crash"] > 0, row
        assert row["forward recovery"], row
        assert row["complete"], row
        assert row["CT"], row
        assert row["P-RC"], row
