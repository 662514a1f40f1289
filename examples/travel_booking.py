#!/usr/bin/env python3
"""Travel booking with parallel activities and alternative executions.

Highlights two process-model features the other examples keep small:

* **multi-activity (parallel) nodes** — flight and hotel are booked
  concurrently; both are compensatable, so a later failure unwinds both;
* **alternative executions** — after the non-refundable ticket is issued
  (pivot), the preferred confirmation path may fail and be compensated,
  falling back to the assured notification path.

The example also demonstrates failure handling end to end by printing
each process's outcome and the compensations that ran.

Run with::

    python examples/travel_booking.py
"""

from collections import Counter

from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ProcessManager
from repro.theory import (
    has_correct_termination,
    is_process_recoverable,
)
from repro.workloads import travel_scenario


def main() -> None:
    scenario = travel_scenario(
        trips=8, hotels=2, flights=2, parallel_booking=True,
        failure_probability=0.12,
    )
    print("trip program (note the parallel booking node):")
    print(scenario.programs[0].describe())
    print()

    protocol = ProcessLockManager(scenario.registry, scenario.conflicts)
    manager = ProcessManager(
        protocol,
        subsystems=scenario.make_subsystems(),
        seed=13,
    )
    for program in scenario.programs:
        manager.submit(program)
    result = manager.run()

    print("per-process outcomes:")
    for pid, record in sorted(result.records.items()):
        if record.committed_at is not None:
            outcome = f"committed at t={record.committed_at:.1f}"
        else:
            outcome = "aborted (pre-pivot failure)"
        extras = []
        if record.resubmissions:
            extras.append(f"{record.resubmissions} resubmissions")
        if record.compensated_names:
            undone = Counter(record.compensated_names)
            extras.append(
                "compensated " + ", ".join(
                    f"{name}×{count}" for name, count in undone.items()
                )
            )
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"  P{pid}: {outcome}{suffix}")

    print()
    print(f"committed : {result.stats.committed}/{result.stats.submitted}")
    print(f"subprocess aborts (failed alternatives): "
          f"{result.stats.subprocess_aborts}")
    print(f"makespan  : {result.makespan:.1f}")

    schedule = result.trace.to_schedule(scenario.conflicts.conflict)
    print()
    print(f"CT   (Theorem 1): {has_correct_termination(schedule)}")
    print(f"P-RC (Theorem 2): {is_process_recoverable(schedule)}")


if __name__ == "__main__":
    main()
