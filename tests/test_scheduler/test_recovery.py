"""Tests for process-manager crash recovery (fault tolerance).

The headline property: crash the manager after an arbitrary number of
events, recover into a fresh manager, run to quiescence — the combined
pre+post-crash schedule must still satisfy CT and P-RC, completing
processes must commit (forward recovery), and aborting processes must
finish aborting.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProcessLockManager
from repro.errors import SchedulerError
from repro.process.state import ProcessState
from repro.scheduler.manager import ProcessManager
from repro.scheduler.recovery import (
    crash,
    recover,
    restore_process,
)
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)


def fresh_manager(workload, seed):
    protocol = make_protocol("process-locking", workload)
    manager = ProcessManager(protocol, seed=seed)
    for program in workload.programs:
        manager.submit(program)
    return manager


def crash_and_recover(workload, seed, steps):
    manager = fresh_manager(workload, seed)
    manager.engine.run_steps(steps)
    image = crash(manager)
    protocol = make_protocol("process-locking", workload)
    recovered = recover(image, protocol, seed=seed)
    result = recovered.run()
    return image, recovered, result


class TestSnapshotRestore:
    def test_round_trip_mid_program(self, order_program):
        from repro.scheduler.recovery import _snapshot_process

        from repro.process.instance import Process

        process = Process(pid=1, program=order_program, timestamp=5)
        reserved = process.launch("reserve")
        process.on_committed(reserved)
        snapshot = _snapshot_process(
            process, tuple(process.ready_activities()), {reserved.uid: 1}
        )
        clone = restore_process(snapshot)
        assert clone.pid == 1
        assert clone.timestamp == 5
        assert clone.state is ProcessState.RUNNING
        assert clone.ready_activities() == ["wrap"]
        assert [e.activity.name for e in clone.ledger] == ["reserve"]
        assert clone.ledger[0].activity.uid == reserved.uid

    def test_round_trip_completing(self, order_program):
        from repro.scheduler.recovery import _snapshot_process
        from repro.process.instance import Process

        process = Process(pid=2, program=order_program, timestamp=7)
        positions = {}
        for name in ("reserve", "wrap", "charge"):
            activity = process.launch(name)
            process.on_committed(activity)
            positions[activity.uid] = len(positions) + 1
        snapshot = _snapshot_process(
            process, tuple(process.ready_activities()), positions
        )
        clone = restore_process(snapshot)
        assert clone.state is ProcessState.COMPLETING
        assert sum(
            entry.activity.activity_type.point_of_no_return
            for entry in clone.ledger
        ) == 1
        assert clone.ready_activities() == ["ship"]


class TestBasicRecovery:
    WORKLOAD = WorkloadSpec(
        n_processes=6,
        conflict_density=0.4,
        failure_probability=0.08,
        seed=5,
    )

    def test_recover_at_midpoint_reaches_quiescence(self):
        workload = build_workload(self.WORKLOAD)
        __, recovered, result = crash_and_recover(
            workload, seed=5, steps=25
        )
        schedule = result.trace.to_schedule(
            workload.conflicts.conflict
        )
        assert schedule.is_complete

    def test_combined_schedule_is_correct(self):
        workload = build_workload(self.WORKLOAD)
        __, __, result = crash_and_recover(workload, seed=5, steps=25)
        schedule = result.trace.to_schedule(
            workload.conflicts.conflict
        )
        assert has_correct_termination(schedule)
        assert is_process_recoverable(schedule)

    def test_completing_processes_commit_after_recovery(self):
        workload = build_workload(self.WORKLOAD)
        image, __, result = crash_and_recover(
            workload, seed=5, steps=40
        )
        completing_pids = {
            snap.pid
            for snap in image.snapshots
            if snap.state == ProcessState.COMPLETING.value
        }
        for pid in completing_pids:
            assert result.records[pid].committed_at is not None, (
                f"completing P{pid} failed to commit after recovery"
            )

    def test_trace_continues_prior_events(self):
        workload = build_workload(self.WORKLOAD)
        image, __, result = crash_and_recover(
            workload, seed=5, steps=25
        )
        prior = len(image.trace_events)
        assert result.trace.events[:prior] == image.trace_events
        assert len(result.trace.events) > prior

    def test_crash_at_zero_events_is_a_clean_restart(self):
        workload = build_workload(self.WORKLOAD)
        manager = fresh_manager(workload, seed=5)
        manager.engine.run_steps(len(workload.programs))  # initiations
        image = crash(manager)
        protocol = make_protocol("process-locking", workload)
        recovered = recover(image, protocol)
        result = recovered.run()
        assert result.stats.committed >= 1

    def test_recovery_requires_fresh_protocol(self):
        workload = build_workload(self.WORKLOAD)
        manager = fresh_manager(workload, seed=5)
        manager.engine.run_steps(20)
        image = crash(manager)
        with pytest.raises(SchedulerError):
            recover(image, manager.protocol)  # lock table not empty

    def test_new_submissions_after_recovery_get_younger_timestamps(
        self,
    ):
        workload = build_workload(self.WORKLOAD)
        manager = fresh_manager(workload, seed=5)
        manager.engine.run_steps(30)
        image = crash(manager)
        protocol = make_protocol("process-locking", workload)
        recovered = recover(image, protocol)
        old_max = max(snap.timestamp for snap in image.snapshots)
        assert protocol.new_timestamp() > old_max


class TestLockRebuild:
    def test_sharing_order_preserved(self, registry, conflicts):
        from repro.process.builder import ProgramBuilder

        program = (
            ProgramBuilder("p", registry).step("reserve").step("wrap")
            .build()
        )
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol)
        manager.submit(program)
        manager.submit(program)
        # Run until both hold their 'reserve' locks (shared in order).
        manager.engine.run_steps(4)
        image = crash(manager)
        protocol2 = ProcessLockManager(registry, conflicts)
        recovered = recover(image, protocol2)
        recovered.engine.run_steps(1)
        younger = recovered.process(2)
        older = recovered.process(1)
        if younger is not None and older is not None:
            blockers = protocol2.table.commit_blockers(younger)
            assert blockers <= {1}
        result = recovered.run()
        commits = [
            e.process[0]
            for e in result.trace.events
            if e.kind.value == "commit"
        ]
        assert commits == sorted(commits)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=200),
    steps=st.integers(min_value=1, max_value=120),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
# Regression: the crash caught P2's *parked* pivot request after its Wcc
# charge had landed; replaying the C→P conversion from the wcc-threshold
# heuristic hid P2's on-hold C locks from the Piv-Rule scan, granting
# the pivot while on hold behind P1 — an unresolvable completing ↔
# aborting wait cycle.  ProcessSnapshot.pivot_treated now journals the
# granted conversion explicitly.
@example(seed=73, steps=17, density=0.5)
def test_property_crash_anywhere_recovers_correctly(
    seed, steps, density
):
    """Crash after any number of events: recovery always converges to a
    complete, CT + P-RC schedule."""
    workload = build_workload(
        WorkloadSpec(
            n_processes=5,
            conflict_density=density,
            failure_probability=0.1,
            seed=seed,
        )
    )
    manager = fresh_manager(workload, seed=seed)
    manager.engine.run_steps(steps)
    image = crash(manager)
    protocol = make_protocol("process-locking", workload)
    recovered = recover(image, protocol, seed=seed)
    result = recovered.run()
    schedule = result.trace.to_schedule(workload.conflicts.conflict)
    assert schedule.is_complete
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)
