"""Exporter tests: JSONL round-trip, Perfetto JSON, wait-for DOT."""

import json

from repro.obs import (
    Tracer,
    export_all,
    perfetto_trace,
    read_jsonl,
    wait_for_dot,
    write_jsonl,
)
from repro.obs.export import TS_SCALE
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload

CONTENDED = WorkloadSpec(
    n_processes=10,
    n_activity_types=6,
    conflict_density=0.6,
    failure_probability=0.05,
    arrival_spacing=0.5,
    seed=7,
)


def traced_run(spec=CONTENDED):
    tracer = Tracer()
    run_workload(build_workload(spec), seed=spec.seed, tracer=tracer)
    return tracer


# ----------------------------------------------------------------------
# hand-built records (format contracts)
# ----------------------------------------------------------------------
def test_perfetto_pairs_spans_by_uid():
    records = [
        {"seq": 0, "t": 1.0, "kind": "activity.start", "pid": 1,
         "incarnation": 0, "activity": "reserve", "uid": 11,
         "compensation": False},
        {"seq": 1, "t": 3.5, "kind": "activity.commit", "pid": 1,
         "incarnation": 0, "activity": "reserve", "uid": 11,
         "compensation": False},
    ]
    trace = perfetto_trace(records)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    (span,) = spans
    assert span["name"] == "reserve"
    assert span["ts"] == 1.0 * TS_SCALE
    assert span["dur"] == 2.5 * TS_SCALE
    assert span["args"]["outcome"] == "activity.commit"
    # The process got a metadata track naming it P1.
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "P1"


def test_perfetto_closes_dangling_spans_at_trace_end():
    records = [
        {"seq": 0, "t": 1.0, "kind": "activity.start", "pid": 1,
         "incarnation": 0, "activity": "ship", "uid": 5,
         "compensation": False},
        {"seq": 1, "t": 9.0, "kind": "process.commit", "pid": 2,
         "incarnation": 0},
    ]
    spans = [
        e for e in perfetto_trace(records)["traceEvents"]
        if e["ph"] == "X"
    ]
    assert spans[0]["args"]["outcome"] == "open"
    assert spans[0]["dur"] == 8.0 * TS_SCALE


def test_wait_for_dot_snapshots_peak_contention():
    def defer(t, pid, uid, blockers):
        return {"t": t, "kind": "lock.defer", "pid": pid, "incarnation": 0,
                "timestamp": pid, "request": "regular",
                "activity": "reserve", "uid": uid, "mode": "C",
                "reason": "x", "rule": "y",
                "blockers": [{"pid": b, "timestamp": b, "modes": "C"}
                             for b in blockers],
                "shard": "sub0"}

    def grant(t, pid, uid):
        return {"t": t, "kind": "lock.grant", "pid": pid,
                "incarnation": 0, "request": "regular",
                "activity": "reserve", "uid": uid, "mode": "C",
                "position": 0}

    records = [
        defer(1.0, 3, 30, [1]),
        defer(2.0, 4, 40, [1, 2]),  # peak: 3 edges
        grant(3.0, 3, 30),  # the next decision on a request ends its park
        grant(4.0, 4, 40),
    ]
    dot = wait_for_dot(records)
    assert dot.startswith("digraph waitfor {")
    assert "@ vt 2" in dot
    assert "p3 -> p1" in dot and "p4 -> p2" in dot
    assert 'label="x\\n@sub0"' in dot
    # ``at`` replays up to a cut-off instead of taking the peak.
    late = wait_for_dot(records, at=3.5)
    assert "p3 -> p1" not in late and "p4 -> p1" in late


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    from repro.obs.events import ProcessInitiated

    tracer.emit(0, 2.0, ProcessInitiated(pid=1, timestamp=3))
    path = write_jsonl(tracer.records(), tmp_path / "events.jsonl")
    restored = read_jsonl(path)
    # JSON normalizes tuples to lists; compare through one dump cycle.
    assert restored == json.loads(json.dumps(tracer.records()))


# ----------------------------------------------------------------------
# a real traced run end to end
# ----------------------------------------------------------------------
class TestExportAll:
    def test_writes_every_artifact(self, tmp_path):
        tracer = traced_run()
        assert len(tracer) > 0
        paths = export_all(tracer, tmp_path / "out")
        assert sorted(paths) == [
            "events", "perfetto", "series", "waitfor"
        ]
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0

    def test_perfetto_json_is_strict_and_well_formed(self, tmp_path):
        tracer = traced_run()
        paths = export_all(tracer, tmp_path / "out")
        # Strict parse — no NaN/Infinity tokens may leak into the file.
        trace = json.loads(
            paths["perfetto"].read_text(), parse_constant=_reject
        )
        events = trace["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"M", "X", "i", "C"}
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] != "M":
                assert event.get("ts", 0) >= 0

    def test_series_json_has_gauges_and_histograms(self, tmp_path):
        tracer = traced_run()
        paths = export_all(tracer, tmp_path / "out")
        series = json.loads(paths["series"].read_text())
        for gauge in ("parked", "inflight", "live", "locks"):
            assert gauge in series["gauges"]
        assert series["histograms"]["defer_reasons"]

    def test_jsonl_matches_tracer_records(self, tmp_path):
        tracer = traced_run()
        paths = export_all(tracer, tmp_path / "out")
        restored = read_jsonl(paths["events"])
        assert len(restored) == len(tracer)
        assert restored == json.loads(json.dumps(tracer.records()))


def _reject(token):
    raise AssertionError(f"non-strict JSON constant in export: {token}")


# ----------------------------------------------------------------------
# record -> event restoration (every dataclass round-trips)
# ----------------------------------------------------------------------
import math

import pytest

from repro.obs import record_to_event
from repro.obs.events import EVENT_TYPES, Holder
from repro.obs import events as ev

#: One exemplar per event class, exercising the awkward field shapes:
#: Holder tuples, plain int/str tuples, optional fields, non-finite
#: floats, and nested dicts.
EXEMPLARS = [
    ev.ProcessSubmitted(pid=1),
    ev.ProcessInitiated(pid=1, timestamp=3, incarnation=1),
    ev.ProcessCommitted(pid=1, incarnation=1),
    ev.AbortBegun(pid=1, incarnation=0, cause="cascade"),
    ev.ProcessAborted(pid=1, incarnation=0, resubmit=True),
    ev.ProcessCancelled(pid=1, initiated=False),
    ev.ProcessStarved(pid=1, resubmissions=500),
    ev.ProcessHeld(pid=4, incarnation=1, behind=(2, 3)),
    ev.ProcessResubmitted(pid=1, incarnation=1, timestamp=3),
    ev.LockGranted(
        pid=1, incarnation=0, request="regular", activity="reserve",
        uid=9, mode="w", position=2,
    ),
    ev.LockDeferred(
        pid=1, incarnation=0, timestamp=3, request="regular",
        activity="reserve", uid=9, mode="w", reason="conflict",
        rule="Comp-Rule",
        blockers=(Holder(pid=2, timestamp=1, modes="w"),),
        shard="bank",
    ),
    ev.CascadeRequested(
        pid=1, incarnation=0, timestamp=3, request="commit",
        activity=None, uid=None, mode=None,
        victims=(
            Holder(pid=2, timestamp=1),
            Holder(pid=3, timestamp=2, modes="rw"),
        ),
    ),
    ev.SelfAbortDecision(
        pid=1, incarnation=0, timestamp=3, request="regular",
        activity="reserve", uid=9, reason="older holder", rule="WW",
    ),
    ev.UnresolvableCascade(pid=1, activity="reserve", holder=2),
    ev.LockConverted(pid=1, type_name="reserve", position=0),
    ev.ActivityClassified(
        pid=1, incarnation=0, activity="reserve", mode="regular",
        wcc=math.inf, threshold=math.inf,
        pseudo_pivot=False, real_pivot=True,
    ),
    ev.ActivityStarted(
        pid=1, incarnation=0, activity="reserve", uid=9,
        compensation=False,
    ),
    ev.ActivityRetried(pid=1, activity="ship", uid=9, attempt=2),
    ev.ActivityCommitted(
        pid=1, incarnation=0, activity="reserve", uid=9,
        compensation=True, undone=2.5, cause="protocol-abort:cascade",
    ),
    ev.ActivityFailed(pid=1, incarnation=0, activity="charge", uid=9),
    ev.ActivityCancelled(pid=1, incarnation=0, activity="ship", uid=9),
    ev.DeadlockVictim(pid=1, cycle=(1, 2, 3)),
    ev.UnresolvableForced(pid=1, request="commit", cycle=(1, 2)),
    ev.FaultInjected(
        channel="crash", pid=1, activity="reserve",
        detail={"offset": 4.0},
    ),
    ev.RetryBudgetExhausted(
        pid=1, activity="ship", uid=9, attempts=5, subsystem="shop"
    ),
    ev.StoreRecovered(
        backend="log", adopted=2, resubmitted=1, restored=5,
        journal_records=120, healed_namespaces=1, seconds=0.004,
    ),
    ev.StoreSnapshot(processes=3, journal_lsn=120),
    ev.StoreTornTail(namespace="commit", dropped_bytes=17),
]


def test_exemplars_cover_every_event_type():
    assert {type(e).kind for e in EXEMPLARS} == set(EVENT_TYPES)
    assert len(EVENT_TYPES) == 28


@pytest.mark.parametrize(
    "event", EXEMPLARS, ids=lambda e: type(e).kind
)
def test_every_event_round_trips_through_jsonl(event, tmp_path):
    """event -> stamped record -> JSONL -> record -> event, equal."""
    tracer = Tracer()
    tracer.emit(0, 1.5, event)
    path = write_jsonl(tracer.records(), tmp_path / "one.jsonl")
    (record,) = read_jsonl(path)
    assert record["t"] == 1.5
    assert record_to_event(record) == event


def test_events_from_records_restores_the_whole_stream(tmp_path):
    tracer = Tracer()
    for seq, event in enumerate(EXEMPLARS):
        tracer.emit(seq, 0.0, event)
    path = write_jsonl(tracer.records(), tmp_path / "all.jsonl")
    restored = [record_to_event(r) for r in read_jsonl(path)]
    assert restored == EXEMPLARS


def test_record_to_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown event kind"):
        record_to_event({"seq": 0, "t": 0.0, "kind": "no.such"})


def test_restored_stream_feeds_replay_and_explain(tmp_path):
    """A restored full-run stream drives the downstream consumers."""
    from repro.obs import explain_process, replay_metrics

    tracer = traced_run()
    path = write_jsonl(tracer.records(), tmp_path / "events.jsonl")
    records = read_jsonl(path)
    events = [record_to_event(r) for r in records]
    assert len(events) == len(records)
    metrics = replay_metrics(records)
    assert metrics.events.total() == len(records)
    pid = next(r["pid"] for r in records if "pid" in r)
    assert explain_process(records, pid)
