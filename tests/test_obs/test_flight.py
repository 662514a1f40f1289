"""Flight-recorder tests: ring bounds, lazy flattening, dump format."""

from __future__ import annotations

import json
import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ManagerCrash, compile_plan
from repro.obs import (
    FlightRecorder,
    MetricsTracer,
    Tracer,
    read_jsonl,
    replay_metrics,
)
from repro.obs.events import (
    ActivityClassified,
    ProcessCommitted,
    ProcessInitiated,
    flat_record,
    json_record,
    restore_record,
)
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        FlightRecorder(0)


def test_ring_keeps_only_the_last_n_events():
    flight = FlightRecorder(capacity=3)
    for i in range(10):
        flight.append(i, float(i), ProcessInitiated(pid=i, timestamp=i))
    assert len(flight) == 3
    assert flight.appended == 10
    records = flight.snapshot()
    assert [r["seq"] for r in records] == [7, 8, 9]
    assert all(r["kind"] == "process.init" for r in records)
    assert flight.dumps == 1


def test_snapshot_is_strict_json_even_with_infinite_wcc():
    flight = FlightRecorder(capacity=4)
    flight.append(0, 1.0, ActivityClassified(
        pid=1, incarnation=0, activity="reserve", mode="regular",
        wcc=math.inf, threshold=math.inf,
        pseudo_pivot=False, real_pivot=False,
    ))
    records = flight.snapshot()
    text = json.dumps(records, allow_nan=False)  # must not raise
    assert "Infinity" in text  # the string spelling, not the constant

    restored = [restore_record(r) for r in records]
    assert restored[0]["wcc"] == math.inf


def test_dump_jsonl_round_trips_through_readers(tmp_path):
    flight = FlightRecorder(capacity=8)
    flight.append(0, 0.0, ProcessInitiated(pid=1, timestamp=1))
    flight.append(1, 2.0, ProcessCommitted(pid=1, incarnation=0))
    path = tmp_path / "flight.jsonl"
    written = flight.dump_jsonl(path)
    assert written == 2

    records = read_jsonl(path)
    assert [r["kind"] for r in records] == [
        "process.init", "process.commit",
    ]
    metrics = replay_metrics(records)
    assert metrics.outcomes.value(("committed",)) == 1
    assert metrics.initiated.total() == 1


class _FlattenAtEmit:
    """A sink that flattens each event the moment it is emitted."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, seq, t, event) -> None:
        self.records.append(json_record(flat_record(seq, t, event)))


def test_a_dumped_ring_equals_the_events_as_they_were_emitted():
    """Events are plain (not frozen) dataclasses that the ring keeps by
    reference and flattens only when dumped: no layer may change one
    after its emit.  And the hot emit sites build theirs positionally,
    so each value must have landed in the field that names it.  The
    ring and the sink are handed one stamp: ``seq`` and ``t`` agree
    too."""
    spec = WorkloadSpec(
        n_processes=40,
        conflict_density=0.6,
        failure_probability=0.05,
        seed=3,
    )
    sink = _FlattenAtEmit()
    flight = FlightRecorder(capacity=100_000)
    tracer = MetricsTracer(sinks=(sink,), recorder=flight)
    run_workload(build_workload(spec), seed=3, tracer=tracer)

    dumped = flight.snapshot()
    assert len(dumped) == flight.appended > 1000
    assert dumped == sink.records
    assert [r["seq"] for r in dumped] == list(range(len(dumped)))

    kinds = {record["kind"] for record in dumped}
    assert {
        "lock.grant", "lock.defer", "lock.cascade", "wcc.classify",
        "activity.start", "activity.commit",
    } <= kinds
    requests = {"regular", "compensation", "commit"}
    for record in dumped:
        kind = record["kind"]
        if kind == "lock.grant":
            assert record["request"] in requests
            assert record["mode"] in {"C", "P", None}
            assert record["position"] is None or record["position"] >= 0
        elif kind == "wcc.classify":
            assert record["mode"] in {"C", "P"}
            assert isinstance(record["pseudo_pivot"], bool)
            assert isinstance(record["real_pivot"], bool)
        elif kind in ("activity.start", "activity.commit"):
            assert isinstance(record["activity"], str)
            assert isinstance(record["uid"], int)
            assert isinstance(record["compensation"], bool)
        elif kind in ("lock.defer", "lock.cascade"):
            # A park: its request and the shard it contends on.
            assert record["request"] in requests
            assert (record["shard"] is None) == (
                record["request"] == "commit"
            )


def test_a_crash_run_stamps_the_ring_and_the_tracer_alike():
    """One tee, one stamp: across a manager crash the flight ring and a
    recording tracer hold the same ``(seq, t)`` list, ``seq`` counts
    from 0 without a gap and ``t`` never goes back."""
    sink = Tracer()
    flight = FlightRecorder(capacity=100_000)
    plan = FaultPlan(
        name="one-stamp-crash",
        manager_crashes=(ManagerCrash(at_event=30),),
    )
    chaos = FaultInjector(
        build_workload(WorkloadSpec(n_processes=12, seed=4)),
        "process-locking",
        compile_plan(plan, 4),
        seed=4,
        tracer=MetricsTracer(sinks=(sink,), recorder=flight),
    ).run()
    assert chaos.incarnations == 2

    stamps = [(seq, t) for seq, t, __ in sink.stamped]
    assert [(r["seq"], r["t"]) for r in flight.snapshot()] == stamps
    assert [seq for seq, __ in stamps] == list(range(len(stamps)))
    times = [t for __, t in stamps]
    assert times == sorted(times)
    (crash,) = [
        t
        for __, t, event in sink.stamped
        if getattr(event, "channel", None) == "manager-crash"
    ]
    assert 0.0 < crash < times[-1]
