"""E5 — Deadlock freedom and starvation avoidance.

Adversarial high-conflict workloads (density up to 0.9, everything
arriving at once), the three six-subsystem shapes of the schedule
golden test (40 / 60 / 80 processes, staggered arrivals) and the
served benchmark's contended bursts (12 x 16 processes on a
16-program catalog at density 0.6).  Expected shape: under the basic
protocol the timestamp discipline needs zero deadlock-cycle victims;
every process terminates (the run itself asserts quiescence); and
same-timestamp resubmission behind the restart gate bounds each
process's abort count far below the starvation limit (500), with the
oldest processes never starving.
"""

import math

import pytest

from harness import print_experiment
from repro.scheduler.manager import make_manager
from repro.sim.runner import make_protocol, run_workload
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_scheduler.test_restart_gate import BURST, run_bursts
from tests.test_scheduler.test_schedule_golden import POINTS

DENSITIES = [0.5, 0.7, 0.9]

BASE = WorkloadSpec(
    n_processes=12,
    n_activity_types=10,
    failure_probability=0.08,
    pivot_probability=0.8,
    wcc_threshold=math.inf,
)


def _row(shape, spec, records, stats):
    return {
        "shape": shape,
        "density": spec.conflict_density,
        "seed": spec.seed,
        "deadlock_victims": stats.deadlock_victims,
        "max_resubmissions": max(r.resubmissions for r in records.values()),
        "total_resubmissions": stats.resubmissions,
        "attempts/commit": round(
            (stats.submitted + stats.resubmissions)
            / max(1, stats.committed),
            2,
        ),
        "committed": stats.committed,
        "submitted": stats.submitted,
    }


def _run_bursts():
    """One ``burst_contended`` round (``bench/workloads.py``), in
    process and audited."""
    workload = build_workload(BURST)
    manager = make_manager(
        make_protocol("process-locking", workload),
        seed=BURST.seed,
    )
    run_bursts(manager, workload)
    manager.run()  # asserts quiescence, reports starvation
    return manager


def run_e5():
    rows = []
    for density in DENSITIES:
        for seed in (3, 4, 5):
            spec = BASE.with_(conflict_density=density, seed=seed)
            result = run_workload(
                build_workload(spec), "process-locking", seed=seed,
            )
            rows.append(
                _row("all-at-once", spec, result.records, result.stats)
            )
    for name in ("pl-40", "pl-60-seed3", "pl-80"):
        spec, protocol, *_ = POINTS[name]
        result = run_workload(
            build_workload(spec), protocol, seed=spec.seed,
        )
        rows.append(_row(name, spec, result.records, result.stats))
    manager = _run_bursts()
    rows.append(_row("bursts", BURST, manager.records, manager.stats))
    return rows


@pytest.mark.benchmark(group="experiments")
def test_e5_liveness(benchmark):
    rows = benchmark.pedantic(run_e5, rounds=1, iterations=1)
    print_experiment(
        "E5: liveness under adversarial contention (basic protocol)",
        rows,
    )
    assert len(rows) == 13
    for row in rows:
        # Timestamp discipline: no wait cycles ever needed breaking.
        assert row["deadlock_victims"] == 0
        # Starvation avoidance: bounded resubmissions per process.
        assert row["max_resubmissions"] < 25
        # Liveness: quiescence already asserted by run(); all processes
        # reached a terminal state, and work actually commits.
        assert row["committed"] >= 1
