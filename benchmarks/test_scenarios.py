"""Domain-scenario benchmarks (the paper's Section-6 applications).

Runs each of the four application scenarios — e-commerce payments,
travel booking, hospital order entry, manufacturing coordination —
under serial execution, exclusive S2PL, and process locking, over real
(simulated) subsystems with derived conflict matrices.  Asserted shape:
process locking is correct on every scenario (CT + P-RC) and never
slower than serial execution; every subsystem commit passes the online
serializability check (ACA holds by construction).
"""

import pytest

from harness import print_experiment
from repro.scheduler.manager import ProcessManager
from repro.sim.runner import PROTOCOL_FACTORIES
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)
from repro.workloads import (
    hospital_scenario,
    manufacturing_scenario,
    payment_scenario,
    travel_scenario,
)

SCENARIOS = {
    "payment": lambda: payment_scenario(
        customers=8, items=3, failure_probability=0.04
    ),
    "travel": lambda: travel_scenario(
        trips=8, failure_probability=0.06
    ),
    "hospital": lambda: hospital_scenario(
        patients=6, failure_probability=0.04
    ),
    "manufacturing": lambda: manufacturing_scenario(
        orders=8, failure_probability=0.05
    ),
}
PROTOCOLS = ["serial", "s2pl", "process-locking"]
SEEDS = [1, 2, 3]


def run_scenarios():
    rows = []
    checks = []
    for scenario_name, maker in SCENARIOS.items():
        for protocol_name in PROTOCOLS:
            makespans = []
            committed = 0
            for seed in SEEDS:
                scenario = maker()
                factory = PROTOCOL_FACTORIES[protocol_name]
                protocol = factory(
                    scenario.registry, scenario.conflicts
                )
                pool = scenario.make_subsystems()
                manager = ProcessManager(
                    protocol,
                    subsystems=pool,
                    seed=seed,
                )
                for program in scenario.programs:
                    manager.submit(program)
                result = manager.run()
                makespans.append(result.makespan)
                committed += result.stats.committed
                if protocol_name == "process-locking":
                    schedule = result.trace.to_schedule(
                        scenario.conflicts.conflict
                    )
                    checks.append(
                        has_correct_termination(schedule)
                        and is_process_recoverable(schedule)
                        and all(
                            sub.counters.validated == sub.committed_count
                            for sub in pool
                        )
                    )
            rows.append(
                {
                    "scenario": scenario_name,
                    "protocol": protocol_name,
                    "makespan": round(
                        sum(makespans) / len(makespans), 1
                    ),
                    "committed": committed,
                }
            )
    return rows, checks


@pytest.mark.benchmark(group="scenarios")
def test_domain_scenarios(benchmark):
    rows, checks = benchmark.pedantic(
        run_scenarios, rounds=1, iterations=1
    )
    print_experiment(
        f"Domain scenarios × protocols (mean of {len(SEEDS)} seeds)",
        rows,
    )
    assert checks and all(checks)
    by = {
        (row["scenario"], row["protocol"]): row["makespan"]
        for row in rows
    }
    for scenario_name in SCENARIOS:
        assert (
            by[(scenario_name, "process-locking")]
            <= by[(scenario_name, "serial")]
        ), scenario_name
