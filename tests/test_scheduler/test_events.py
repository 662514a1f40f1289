"""Unit tests for the manager's bookkeeping records."""

import sys
from dataclasses import fields

from repro.process.instance import Process
from repro.scheduler.events import (
    CompensationRun,
    InflightActivity,
    ParkedRequest,
    ProcessRecord,
    RequestKind,
)


class TestProcessRecord:
    def test_keeps_only_what_a_client_or_recovery_reads(self):
        """Every other per-pid count is the fold's."""
        assert [spec.name for spec in fields(ProcessRecord)] == [
            "pid",
            "submitted_at",
            "committed_at",
            "resubmissions",
            "compensated_names",
            "compensated_causes",
            "outcome",
        ]
        assert sys.getsizeof(ProcessRecord(pid=1, submitted_at=0.0)) == 88

    def test_latency_requires_commit(self):
        record = ProcessRecord(pid=1, submitted_at=10.0)
        assert record.latency is None
        record.committed_at = 25.0
        assert record.latency == 15.0

    def test_fresh_record_counters(self):
        record = ProcessRecord(pid=1, submitted_at=0.0)
        assert record.resubmissions == 0
        # No list until the first compensation: the shared empty tuple.
        assert record.compensated_names == ()
        assert record.compensated_causes == ()

    def test_first_compensation_allocates_the_lists(self):
        record = ProcessRecord(pid=1, submitted_at=0.0)
        other = ProcessRecord(pid=2, submitted_at=0.0)
        record.note_compensation("reserve", "protocol-abort")
        record.note_compensation("wrap", "intrinsic-abort")
        assert record.compensated_names == ["reserve", "wrap"]
        assert record.compensated_causes == [
            "protocol-abort", "intrinsic-abort"
        ]
        assert other.compensated_names == other.compensated_causes == ()


class TestParkedRequest:
    def test_str_includes_kind_and_waiters(self, flat_program):
        process = Process(pid=4, program=flat_program, timestamp=1)
        activity = process.launch("reserve")
        request = ParkedRequest(
            kind=RequestKind.REGULAR,
            process=process,
            activity=activity,
            wait_for=frozenset({7, 3}),
            reason="test",
        )
        text = str(request)
        assert "regular:reserve" in text
        assert "P4" in text
        assert "[3, 7]" in text

    def test_commit_request_str(self, flat_program):
        process = Process(pid=4, program=flat_program, timestamp=1)
        request = ParkedRequest(
            kind=RequestKind.COMMIT,
            process=process,
            wait_for=frozenset({1}),
            reason="commit-on-hold",
        )
        assert "commit" in str(request)


class TestInflightActivity:
    def test_defaults(self, flat_program):
        process = Process(pid=1, program=flat_program, timestamp=1)
        activity = process.launch("reserve")
        flight = InflightActivity(
            process=process,
            activity=activity,
            kind=RequestKind.REGULAR,
            started_at=0.0,
        )
        assert not flight.started
        assert not flight.cancelled
        assert flight.gate == set()


class TestCompensationRun:
    def test_carries_queue_and_ending(self, flat_program):
        process = Process(pid=1, program=flat_program, timestamp=1)
        activity = process.launch("reserve")
        process.on_committed(activity)
        run = CompensationRun(
            process=process,
            queue=list(process.ledger),
            then="resubmit",
            label="test",
        )
        assert len(run.queue) == 1
        # The ending is data the manager (and a crash image) can read
        # and a cancel can rewrite — not a closure.
        run.then = "cancelled"
        assert run.then == "cancelled"
