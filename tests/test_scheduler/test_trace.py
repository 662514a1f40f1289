"""Unit tests for the trace recorder."""

from repro.process.instance import Process
from repro.scheduler.trace import TraceRecorder
from repro.theory.schedule import EventKind


def test_trace_records_positions_and_kinds(flat_program):
    process = Process(pid=1, program=flat_program, timestamp=1)
    recorder = TraceRecorder(lambda a, b: True)
    activity = process.launch("reserve")
    process.on_committed(activity)
    recorder.record_activity(process, activity)
    recorder.record_commit(process)
    assert len(recorder) == 2
    assert recorder.events[0].position == 0
    assert recorder.events[0].kind is EventKind.ACTIVITY
    assert recorder.events[1].kind is EventKind.COMMIT


def test_trace_captures_termination_properties(order_program):
    process = Process(pid=1, program=order_program, timestamp=1)
    recorder = TraceRecorder(lambda a, b: True)
    for name in ("reserve", "wrap", "charge"):
        activity = process.launch(name)
        process.on_committed(activity)
        recorder.record_activity(process, activity)
    events = recorder.events
    assert events[0].compensatable and not events[0].point_of_no_return
    assert events[2].point_of_no_return and not events[2].compensatable


def test_trace_compensation_links(flat_program):
    process = Process(pid=1, program=flat_program, timestamp=1)
    recorder = TraceRecorder(lambda a, b: True)
    activity = process.launch("reserve")
    process.on_committed(activity)
    recorder.record_activity(process, activity)
    failed = process.launch("wrap")
    plan = process.on_failed(failed)
    entry = plan.compensations[0]
    comp = process.make_compensation(entry)
    process.on_compensated(entry, comp)
    recorder.record_activity(process, comp)
    recorder.record_abort(process)
    assert recorder.events[1].compensates == activity.uid
    assert recorder.events[2].kind is EventKind.ABORT


def test_trace_distinguishes_incarnations(flat_program):
    first = Process(pid=3, program=flat_program, timestamp=9)
    recorder = TraceRecorder(lambda a, b: True)
    activity = first.launch("reserve")
    first.on_committed(activity)
    recorder.record_activity(first, activity)
    plan = first.plan_protocol_abort()
    for entry in plan.compensations:
        comp = first.make_compensation(entry)
        first.on_compensated(entry, comp)
        recorder.record_activity(first, comp)
    first.finish_abort()
    recorder.record_abort(first)
    second = first.resubmit()
    activity2 = second.launch("reserve")
    second.on_committed(activity2)
    recorder.record_activity(second, activity2)
    keys = {event.process for event in recorder.events}
    assert keys == {(3, 0), (3, 1)}


def test_to_schedule_round_trip(flat_program):
    process = Process(pid=1, program=flat_program, timestamp=1)
    recorder = TraceRecorder(lambda a, b: True)
    activity = process.launch("reserve")
    process.on_committed(activity)
    recorder.record_activity(process, activity)
    recorder.record_commit(process)
    schedule = recorder.to_schedule(lambda a, b: True)
    assert schedule.is_complete
    assert len(schedule.activities) == 1
