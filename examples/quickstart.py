#!/usr/bin/env python3
"""Quickstart: two conflicting purchase processes under process locking.

Walks through the full public API surface in ~60 lines:

1. define activity types with their termination properties (Table 1),
2. declare the commutativity relation ``CON``,
3. author a process program with guaranteed termination,
4. run concurrent processes through the process-locking protocol,
5. check the observed schedule against the paper's correctness criteria.

Run with::

    python examples/quickstart.py
"""

from repro import (
    ActivityRegistry,
    ConflictMatrix,
    ManagerConfig,
    ProcessLockManager,
    ProcessManager,
    ProgramBuilder,
)
from repro.theory import (
    has_correct_termination,
    is_process_recoverable,
)


def main() -> None:
    # 1. Activity types.  ``reserve`` is compensatable (the reservation
    #    can be released), ``charge`` is a pivot (money moves — the point
    #    of no return), ``ship``/``refund_path`` are retriable.
    registry = ActivityRegistry()
    registry.define_compensatable(
        "reserve", "shop", cost=2.0, compensation_cost=1.0,
        failure_probability=0.05,
    )
    registry.define_compensatable(
        "gift_wrap", "shop", cost=1.0, compensation_cost=0.5,
        failure_probability=0.10,
    )
    registry.define_pivot("charge", "bank", cost=1.0)
    registry.define_retriable("ship", "shop", cost=1.5)

    # 2. Commutativity: two reservations against the same stock conflict;
    #    everything else commutes.  close_perfect() extends the relation
    #    to the compensating activities.
    conflicts = ConflictMatrix(registry)
    conflicts.declare_conflict("reserve", "reserve")
    conflicts.declare_conflict("reserve", "gift_wrap")
    conflicts.close_perfect()

    # 3. A process program: reserve, optionally gift-wrap, charge the
    #    card (pivot), then ship — with plain shipping as the assured
    #    alternative should gift-wrapped dispatch fail.
    program = (
        ProgramBuilder("purchase", registry)
        .step("reserve")
        .step("gift_wrap")
        .pivot("charge")
        .alternatives(lambda branch: branch.step("ship"))
        .build()
    )
    print(program.describe())
    print()

    # 4. Run five concurrent purchases.
    protocol = ProcessLockManager(registry, conflicts)
    manager = ProcessManager(
        protocol, config=ManagerConfig(audit=True), seed=42
    )
    for _ in range(5):
        manager.submit(program)
    result = manager.run()

    print(f"committed : {result.stats.committed}/{result.stats.submitted}")
    print(f"makespan  : {result.makespan:.1f} virtual time units")
    print(f"cascades  : {result.stats.cascade_victims} victim aborts")
    print(f"resubmits : {result.stats.resubmissions}")
    print()
    print("observed schedule:")
    print(" ", " ".join(str(e) for e in result.trace.events))

    # 5. Correctness: the completed schedule must have correct
    #    termination (CT) and be process-recoverable (P-RC) — Theorems 1
    #    and 2 of the paper, checked mechanically.
    schedule = result.trace.to_schedule(conflicts.conflict)
    print()
    print(f"CT   (Theorem 1): {has_correct_termination(schedule)}")
    print(f"P-RC (Theorem 2): {is_process_recoverable(schedule)}")


if __name__ == "__main__":
    main()
