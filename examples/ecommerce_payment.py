#!/usr/bin/env python3
"""E-commerce payment processes over real (simulated) subsystems.

Reproduces the paper's flagship application: payment processes whose
structure is "compensatable steps, then the commit decision (pivot), then
retriable fulfilment with alternatives".  The scenario grounds every
activity in a transaction program against in-memory subsystem stores, so
the conflict matrix is *derived* from read/write sets and the subsystem
histories can be checked for serializability afterwards.

Run with::

    python examples/ecommerce_payment.py
"""

from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ProcessManager
from repro.theory import (
    has_correct_termination,
    is_process_recoverable,
)
from repro.workloads import payment_scenario


def main() -> None:
    scenario = payment_scenario(
        customers=8, items=3, failure_probability=0.04
    )
    print(f"scenario: {scenario.name}")
    print(
        f"activity types: {len(scenario.registry)}, conflict density: "
        f"{scenario.conflicts.density():.2f}"
    )
    print()
    print("first process program:")
    print(scenario.programs[0].describe())
    print()

    subsystems = scenario.make_subsystems()
    protocol = ProcessLockManager(scenario.registry, scenario.conflicts)
    manager = ProcessManager(
        protocol,
        subsystems=subsystems,
        seed=7,
    )
    for program in scenario.programs:
        manager.submit(program)
    result = manager.run()

    print(f"committed  : {result.stats.committed}/{result.stats.submitted}")
    print(f"makespan   : {result.makespan:.1f}")
    print(f"throughput : {result.throughput:.3f} processes / time unit")
    print(f"cascades   : {result.stats.cascade_victims}")
    print(f"compensated: {result.stats.compensations} activities "
          f"(cost {result.stats.compensated_cost:.1f})")

    # The shop's ledger reflects exactly the committed purchases: every
    # aborted process compensated its reservations.
    shop = subsystems.get("shop")
    gateway = subsystems.get("gateway")
    print()
    print("subsystem state after the run:")
    for key, value in sorted(shop.store.snapshot().items()):
        print(f"  shop.{key} = {value}")
    for key, value in sorted(gateway.store.snapshot().items()):
        print(f"  gateway.{key} = {value}")
    # Every subsystem commit was validated online (a serializability
    # violation would have raised CommitValidationError mid-run).
    print(f"  gateway commits validated: {gateway.counters.validated}"
          f"/{gateway.committed_count}")

    schedule = result.trace.to_schedule(scenario.conflicts.conflict)
    print()
    print(f"CT   (Theorem 1): {has_correct_termination(schedule)}")
    print(f"P-RC (Theorem 2): {is_process_recoverable(schedule)}")


if __name__ == "__main__":
    main()
