#!/usr/bin/env python3
"""Fault tolerance: crash the process manager mid-run and recover.

The paper's title promises *fault-tolerant* execution.  Beyond
per-process failure handling (compensation, alternatives), a process
manager must survive its own crash: completing processes have passed
their point of no return and **must** finish, aborting processes must
finish undoing, and running processes continue from their journal.

This example runs a travel workload, kills the manager after a fixed
number of simulation events, recovers from the journal, finishes the
run, and then checks the *combined* pre+post-crash schedule against the
paper's correctness criteria.

Run with::

    python examples/crash_recovery.py
"""

from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ProcessManager
from repro.scheduler.recovery import crash, recover
from repro.theory import (
    has_correct_termination,
    is_process_recoverable,
)
from repro.workloads import travel_scenario

CRASH_AFTER_EVENTS = 30


def main() -> None:
    scenario = travel_scenario(trips=8, failure_probability=0.10)
    protocol = ProcessLockManager(scenario.registry, scenario.conflicts)
    manager = ProcessManager(protocol, seed=4)
    for program in scenario.programs:
        manager.submit(program)

    # --- run until the "power goes out" -----------------------------
    manager.engine.run_steps(CRASH_AFTER_EVENTS)
    image = crash(manager)
    print(f"crash at t={image.crashed_at:.1f} after "
          f"{CRASH_AFTER_EVENTS} events")
    print("journal contents (live processes):")
    for snap in sorted(image.snapshots, key=lambda s: s.pid):
        done = sum(1 for r in snap.ledger if not r.compensates)
        print(
            f"  P{snap.pid}: state={snap.state:<10} "
            f"activities committed={done:<2} "
            f"pending={list(snap.pending_launch)}"
        )
    completing = [
        s.pid
        for s in image.snapshots
        if s.state == "completing"
    ]

    # --- recover into a fresh manager -------------------------------
    protocol2 = ProcessLockManager(
        scenario.registry, scenario.conflicts
    )
    recovered = recover(image, protocol2, seed=4)
    result = recovered.run()

    print()
    print(f"post-recovery commits: {result.stats.committed}")
    if completing:
        outcomes = {
            pid: (
                "committed"
                if result.records[pid].committed_at is not None
                else "NOT COMMITTED (bug!)"
            )
            for pid in completing
        }
        print(f"forward recovery of completing processes: {outcomes}")

    schedule = result.trace.to_schedule(scenario.conflicts.conflict)
    print()
    print(f"combined schedule complete: {schedule.is_complete}")
    print(f"CT   (Theorem 1): {has_correct_termination(schedule)}")
    print(f"P-RC (Theorem 2): {is_process_recoverable(schedule)}")


if __name__ == "__main__":
    main()
