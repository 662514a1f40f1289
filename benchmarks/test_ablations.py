"""Ablations — each design choice DESIGN.md calls out, measured.

A1  Execution gating: conflicting activities' executions are serialized
    in lock-sharing order.  Without it, overlapping conflicting
    executions commit against the sharing order and prefix reducibility
    genuinely fails — the negative result recovered during development.

A2  Global vs scoped P-lock deferment: the literal Piv-Rule reading
    ("any other process holds a P lock") excludes wait cycles among
    cost-protected processes; the scoped reading (conflicting P locks
    only) admits them, and their resolution destroys exactly the
    expensive work the Section-4 extension is meant to protect.

A3  Victim preference in deadlock resolution: under the scoped reading,
    preferring victims without P locks keeps most protected work alive;
    turning the preference off sacrifices protected processes.
"""

import math

import pytest

from harness import print_experiment
from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ManagerConfig, ProcessManager
from repro.sim.runner import schedule_of
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import is_prefix_reducible

SEEDS = [2, 3, 5, 8]


def run_custom(
    workload,
    seed,
    gate=True,
    global_p=True,
    prefer_unprotected=True,
):
    protocol = ProcessLockManager(
        workload.registry,
        workload.conflicts,
        cost_based=True,
        global_p_deferment=global_p,
    )
    manager = ProcessManager(
        protocol,
        config=ManagerConfig(
            gate_conflicting_executions=gate,
            prefer_unprotected_victims=prefer_unprotected,
        ),
        seed=seed,
    )
    for program in workload.programs:
        manager.submit(program)
    return manager.run()


# ----------------------------------------------------------------------
# A1 — execution gating
# ----------------------------------------------------------------------
GATING_SPEC = WorkloadSpec(
    n_processes=8,
    n_activity_types=10,
    conflict_density=0.5,
    failure_probability=0.1,
)


def run_a1():
    outcomes = {"gated": 0, "ungated": 0}
    for seed in SEEDS:
        workload = build_workload(GATING_SPEC.with_(seed=seed))
        for label, gate in (("gated", True), ("ungated", False)):
            result = run_custom(workload, seed, gate=gate)
            schedule = schedule_of(workload, result)
            if not is_prefix_reducible(schedule):
                outcomes[label] += 1
    return outcomes


@pytest.mark.benchmark(group="ablations")
def test_a1_execution_gating(benchmark):
    outcomes = benchmark.pedantic(run_a1, rounds=1, iterations=1)
    print_experiment(
        "A1: P-RED violations with/without execution gating "
        f"({len(SEEDS)} seeds)",
        [
            {"configuration": label, "irreducible runs": count}
            for label, count in outcomes.items()
        ],
    )
    assert outcomes["gated"] == 0
    assert outcomes["ungated"] > 0


# ----------------------------------------------------------------------
# A2 / A3 — P deferment scope and victim preference
# ----------------------------------------------------------------------
PROTECT_SPEC = WorkloadSpec(
    n_processes=10,
    n_activity_types=12,
    conflict_density=0.5,
    failure_probability=0.04,
    expensive_fraction=0.3,
    expensive_cost=50.0,
    wcc_threshold=50.0,
)


def expensive_losses(global_p, prefer_unprotected):
    lost = 0
    deadlock_victims = 0
    for seed in SEEDS:
        workload = build_workload(PROTECT_SPEC.with_(seed=seed))
        result = run_custom(
            workload, seed,
            global_p=global_p,
            prefer_unprotected=prefer_unprotected,
        )
        deadlock_victims += result.stats.deadlock_victims
        for record in result.records.values():
            for name, cause in zip(
                record.compensated_names, record.compensated_causes
            ):
                if (
                    name in workload.expensive_types
                    and cause.startswith("protocol-abort")
                    and not cause.endswith("self")
                ):
                    lost += 1
    return {
        "expensive lost": lost / len(SEEDS),
        "deadlock victims": deadlock_victims / len(SEEDS),
    }


def run_a2_a3():
    return {
        "global P deferment (default)": expensive_losses(
            global_p=True, prefer_unprotected=True
        ),
        "scoped + victim preference": expensive_losses(
            global_p=False, prefer_unprotected=True
        ),
        "scoped, no preference": expensive_losses(
            global_p=False, prefer_unprotected=False
        ),
    }


@pytest.mark.benchmark(group="ablations")
def test_a2_a3_p_deferment_and_victims(benchmark):
    table = benchmark.pedantic(run_a2_a3, rounds=1, iterations=1)
    print_experiment(
        "A2/A3: expensive work lost to protocol aborts, per "
        "configuration (Wcc* = 50)",
        [
            {"configuration": label, **metrics}
            for label, metrics in table.items()
        ],
    )
    default = table["global P deferment (default)"]
    scoped = table["scoped + victim preference"]
    reckless = table["scoped, no preference"]
    # The literal rule keeps protected work fully safe (mixed C/P wait
    # cycles may still sacrifice *unprotected* processes).
    assert default["expensive lost"] == 0
    # The scoped reading loses protected work; without the victim
    # preference the damage multiplies.
    assert scoped["expensive lost"] > 0
    assert reckless["expensive lost"] >= scoped["expensive lost"]
    assert default["expensive lost"] < scoped["expensive lost"]
