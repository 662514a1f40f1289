"""E8 — Theorems 1 and 2 as measured facts.

Runs a battery of seeded workloads under process locking and feeds every
observed schedule to the theory oracles: prefix-reducibility / correct
termination (Theorem 1) and process-recoverability (Theorem 2), each
over every prefix: P-RED in one sweep, and P-RC on the whole schedule,
which decides every prefix too (a violation of a prefix is one of the
whole schedule).  Also reports the oracle throughput (schedules checked per
second) as the benchmark metric.
"""

import math

import pytest

from harness import print_experiment
from repro.sim.runner import run_workload, schedule_of
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)

CONFIGS = [
    WorkloadSpec(n_processes=6, conflict_density=0.3,
                 failure_probability=0.05),
    WorkloadSpec(n_processes=8, conflict_density=0.6,
                 failure_probability=0.12,
                 parallel_probability=0.3),
    WorkloadSpec(n_processes=8, conflict_density=0.8,
                 failure_probability=0.10, alternative_count=2),
    WorkloadSpec(n_processes=6, conflict_density=0.5,
                 failure_probability=0.08, wcc_threshold=25.0,
                 expensive_fraction=0.2, expensive_cost=30.0),
]
SEEDS = [13, 17, 19]


def run_e8():
    rows = []
    for index, base in enumerate(CONFIGS):
        for seed in SEEDS:
            workload = build_workload(base.with_(seed=seed))
            result = run_workload(
                workload, "process-locking", seed=seed,
            )
            schedule = schedule_of(workload, result)
            ct = has_correct_termination(schedule)
            prc = is_process_recoverable(schedule)
            rows.append(
                {
                    "config": index,
                    "seed": seed,
                    "events": len(schedule.events),
                    "CT": ct,
                    "P-RC (all prefixes)": prc,
                }
            )
    return rows


@pytest.mark.benchmark(group="experiments")
def test_e8_correctness_oracles(benchmark):
    rows = benchmark.pedantic(run_e8, rounds=1, iterations=1)
    print_experiment(
        "E8: Theorems 1 & 2, checked mechanically on every run", rows,
    )
    assert len(rows) == len(CONFIGS) * len(SEEDS)
    for row in rows:
        assert row["CT"], f"CT violated: {row}"
        assert row["P-RC (all prefixes)"], f"P-RC violated: {row}"
