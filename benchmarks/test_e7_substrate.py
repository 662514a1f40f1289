"""E7 — Substrate validity: the bottom layer really is CPSR + ACA.

Runs grounded workloads (activities backed by transaction programs over
in-memory stores) under process locking.  Every subsystem commit is
checked online for conflict-serializability (backward validation against
per-key commit counters; a failure raises ``CommitValidationError`` and
ends the run), so each subsystem reports how many of its commits passed;
avoidance of cascading aborts holds by construction, since a read sees
only the committed store or its own buffer.  The derived conflict matrix
must agree with the observed read/write sets.
"""

import pytest

from harness import print_experiment
from repro.scheduler.manager import ProcessManager
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload

SPEC = WorkloadSpec(
    n_processes=10,
    n_activity_types=12,
    grounded=True,
    failure_probability=0.08,
    pivot_probability=0.7,
)


def run_e7():
    rows = []
    for seed in (1, 2, 3):
        workload = build_workload(SPEC.with_(seed=seed))
        pool = workload.make_subsystems()
        protocol = make_protocol("process-locking", workload)
        manager = ProcessManager(
            protocol, subsystems=pool,
            seed=seed,
        )
        for program in workload.programs:
            manager.submit(program)
        result = manager.run()
        for subsystem in pool:
            rows.append(
                {
                    "seed": seed,
                    "subsystem": subsystem.name,
                    "txns": subsystem.committed_count,
                    "validated": subsystem.counters.validated,
                    "keys": len(subsystem.counters.by_key),
                }
            )
        # Conflict matrix agrees with data-level behaviour.
        for first in workload.data_programs:
            for second in workload.data_programs:
                reg = workload.registry
                if (
                    reg.get(first).is_compensation
                    or reg.get(second).is_compensation
                ):
                    continue
                prog_a = workload.data_programs[first]
                prog_b = workload.data_programs[second]
                same = (
                    reg.get(first).subsystem == reg.get(second).subsystem
                )
                if same and prog_a.conflicts_with(prog_b):
                    assert workload.conflicts.conflict(first, second)
        assert result.stats.committed >= 1
    return rows


@pytest.mark.benchmark(group="experiments")
def test_e7_substrate(benchmark):
    rows = benchmark.pedantic(run_e7, rounds=1, iterations=1)
    print_experiment(
        "E7: subsystem guarantees under grounded workloads", rows,
    )
    assert rows
    assert sum(row["txns"] for row in rows) > 0
    for row in rows:
        assert row["validated"] == row["txns"], (
            f"subsystem {row['subsystem']}: a commit skipped validation"
        )
