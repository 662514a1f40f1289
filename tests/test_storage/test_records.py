"""The positional record codec: every kind round-trips, and a row of
any other shape is refused, typed, by decode, ``verify`` and restart.

``repro.storage.journal`` owns the layout of every appended record
(``docs/persistence.md``, "Record layout").  Encoding then decoding must
give back the logical record the caller handed in — the fields a row
leaves out (a trace row's two flags, the defaults of a commit or abort
event) included.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.activities.registry import ActivityRegistry
from repro.cli import main as repro_main
from repro.errors import WalCorruptionError
from repro.scheduler.events import OUTCOMES, ProcessRecord
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec
from repro.storage import AppendLogBackend, Store
from repro.storage.facade import codec_for
from repro.storage.journal import (
    JOURNAL,
    OUTCOME_LETTERS,
    TRACE,
    ProgramCodec,
    record_to_dict,
    subsystem_data,
    trace_event_from_row,
    trace_event_to_row,
)
from repro.theory.schedule import EventKind, ScheduleEvent
from tests.test_storage.commit_log import log_frames, log_path

# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
#: Any float JSON writes back as itself (NaN is not equal to itself).
TIMES = st.floats(allow_nan=False)
STAMPS = st.none() | TIMES
COUNTS = st.integers(min_value=0)
IDS = st.integers(min_value=1)
NAMES = st.lists(st.text(max_size=8), max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | TIMES | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)

PROCESS_RECORDS = st.builds(
    ProcessRecord,
    pid=IDS,
    submitted_at=TIMES,
    committed_at=STAMPS,
    resubmissions=COUNTS,
    compensated_names=NAMES,
    compensated_causes=NAMES,
)


def _terminal(record: ProcessRecord, outcome: str) -> dict:
    return {
        "kind": "terminal",
        "pid": record.pid,
        "outcome": outcome,
        "record": record_to_dict(record),
    }


JOURNAL_RECORDS = st.one_of(
    st.fixed_dictionaries(
        {
            "kind": st.just("submit"),
            "pid": IDS,
            "program": COUNTS,
            "at": TIMES,
        }
    ),
    st.builds(_terminal, PROCESS_RECORDS, st.sampled_from(OUTCOMES)),
    st.fixed_dictionaries({"kind": st.just("cancel"), "pid": IDS}),
)

DATA_RECORDS = st.fixed_dictionaries(
    {
        "kind": st.just("txn"),
        "writes": st.dictionaries(st.text(max_size=8), JSON, max_size=4),
    }
)

FULL_PRECISION = 27.46395300100484
COMPENSATED = ProcessRecord(
    pid=7,
    submitted_at=0.1 + 0.2,
    committed_at=None,
    resubmissions=2,
    compensated_names=["act00", "act01"],
    compensated_causes=["intrinsic-abort", "protocol-abort"],
)


@given(JOURNAL_RECORDS)
@example({"kind": "submit", "pid": 3, "program": 2, "at": FULL_PRECISION})
@example(_terminal(COMPENSATED, "aborted"))
@example(_terminal(ProcessRecord(pid=1, submitted_at=0.0), "starved"))
def test_journal_records_round_trip(record):
    assert JOURNAL.decode(JOURNAL.encode(record)) == record


#: The :class:`ProcessRecord` fields a ``terminal`` row may leave out,
#: with their defaults, in row order.
TRAILING = dict(
    zip(
        [name for name, _ in JOURNAL.kinds["terminal"].fields][3:],
        JOURNAL.kinds["terminal"].defaults,
    )
)


@st.composite
def sparse_records(draw) -> ProcessRecord:
    """A record with any subset of its trailing fields at their
    defaults, the rest drawn — the compensation lists non-empty."""
    drawn = {
        "committed_at": STAMPS,
        "resubmissions": COUNTS,
        "compensated_names": st.lists(st.text(max_size=8), min_size=1),
        "compensated_causes": st.lists(st.text(max_size=8), min_size=1),
    }
    assert set(drawn) == set(TRAILING)
    kept = draw(st.sets(st.sampled_from(sorted(drawn))))
    return ProcessRecord(
        pid=draw(IDS),
        submitted_at=draw(TIMES),
        **{name: draw(drawn[name]) for name in kept},
    )


@given(sparse_records(), st.sampled_from(OUTCOMES))
@example(ProcessRecord(pid=1, submitted_at=0.0), "committed")
@example(ProcessRecord(pid=1, submitted_at=-0.0, resubmissions=1), "aborted")
@example(
    ProcessRecord(pid=2, submitted_at=1.5, committed_at=-0.0),
    "cancelled",
)
@example(ProcessRecord(pid=3, submitted_at=2.0, committed_at=0), "starved")
def test_terminal_rows_round_trip_at_any_defaults(record, outcome):
    """A row ends before the trailing fields at their defaults — as
    JSON writes them: ``0`` and ``-0.0`` are not ``None`` — and decoding
    puts them back; bytes, record and outcome all survive."""
    terminal = _terminal(record, outcome)
    payload = JOURNAL.encode(terminal)
    row = json.loads(payload)
    assert row[:3] == ["t", record.pid, OUTCOME_LETTERS[outcome]]
    assert 4 <= len(row) <= 4 + len(TRAILING)
    if len(row) > 4:  # the last field kept is not at its default
        name = list(TRAILING)[len(row) - 5]
        assert json.dumps(row[-1]) != json.dumps(TRAILING[name])
    decoded = JOURNAL.decode(payload)
    assert decoded == terminal
    assert JOURNAL.encode(decoded) == payload
    assert json.dumps(decoded["record"], sort_keys=True) == json.dumps(
        terminal["record"], sort_keys=True
    )


def test_the_terminal_row_leaves_out_process_record_defaults():
    """The defaults a row may leave out are the record's own, as a
    stored record holds them (its empty compensation tuples as lists),
    and every outcome has its own letter."""
    stored = record_to_dict(ProcessRecord(pid=1, submitted_at=0.0))
    defaults = {
        spec.name: repr(stored[spec.name])
        for spec in fields(ProcessRecord)
        if spec.name in TRAILING
    }
    assert {name: repr(value) for name, value in TRAILING.items()} == defaults
    assert sorted(OUTCOME_LETTERS) == sorted(OUTCOMES)
    assert len(set(OUTCOME_LETTERS.values())) == len(OUTCOMES)
    assert all(len(letter) == 1 for letter in OUTCOME_LETTERS.values())
    committed = ProcessRecord(pid=4, submitted_at=1.5, committed_at=9.0)
    assert JOURNAL.encode(_terminal(committed, "committed")) == (
        b'["t",4,"c",1.5,9.0]'
    )


#: A subsystem's keys, and keys of any other shape: without the prefix,
#: with ``:`` inside and in front.
KEYS = st.one_of(
    st.text(max_size=8).map("bank:".__add__),
    st.text(max_size=8),
    st.text(max_size=8).map(":".__add__),
    st.text(max_size=8).map("bank::".__add__),
)


@given(st.dictionaries(KEYS, JSON, max_size=6))
@example({"bank:k7": 1, "bank:": 0, "bank::x": 2, ":y": 3, "shop:k": 4})
@example({"": None, ":": None, "::": None, "bank": None})
def test_txn_keys_are_stored_relative_and_read_back_whole(writes):
    """``bank:k7`` is stored as ``k7``; every other key is stored whole
    behind a ``:``, so the stored names of two keys never collide and
    each reads back as written."""
    record = {"kind": "txn", "writes": writes}
    codec = codec_for("ssdata/bank")
    payload = codec.encode(record)
    stored = json.loads(payload)[1]
    assert len(stored) == len(writes)
    for key in writes:
        relative = key[len("bank:"):]
        if key.startswith("bank:") and not relative.startswith(":"):
            assert relative in stored
        else:
            assert ":" + key in stored
    assert codec.decode(payload) == record


@given(DATA_RECORDS)
@example({"kind": "txn", "writes": {"k": None, "": 0}})
@example({"kind": "txn", "writes": {"k": {"balance": FULL_PRECISION}}})
def test_data_records_round_trip(record):
    codec = subsystem_data("bank")
    assert codec.decode(codec.encode(record)) == record


def _registry() -> ActivityRegistry:
    registry = ActivityRegistry()
    registry.define_compensatable("book", "s", 1.0, 0.5)
    registry.define_pivot("pay", "s", 2.0)
    registry.define_retriable("ship", "s", 1.0)
    return registry


REGISTRY = _registry()
#: The trace codec finds activity types through the catalog's programs.
CODEC = ProgramCodec([SimpleNamespace(registry=REGISTRY)])


@st.composite
def schedule_events(draw, position: int = 0) -> ScheduleEvent:
    process = (draw(IDS), draw(COUNTS))
    kind = draw(st.sampled_from(EventKind))
    if kind is not EventKind.ACTIVITY:
        return ScheduleEvent(position=position, process=process, kind=kind)
    activity_type = draw(st.sampled_from(list(REGISTRY)))
    return ScheduleEvent(
        position=position,
        process=process,
        kind=kind,
        name=activity_type.name,
        uid=draw(IDS),
        compensates=draw(IDS) if activity_type.is_compensation else None,
        compensatable=activity_type.compensatable,
        point_of_no_return=activity_type.point_of_no_return,
    )


@given(COUNTS, st.lists(schedule_events(), max_size=8))
def test_trace_frames_round_trip_every_event_kind(start, drawn):
    """The flags come back from the registry, a commit or abort event's
    defaults from the event kind: each decoded event equals the event
    the recorder made."""
    events = [
        replace(event, position=start + offset)
        for offset, event in enumerate(drawn)
    ]
    frame = {"start": start, "events": list(map(trace_event_to_row, events))}
    decoded = TRACE.decode(TRACE.encode(frame))
    assert decoded == frame
    assert [
        trace_event_from_row(row, start + offset, CODEC)
        for offset, row in enumerate(decoded["events"])
    ] == events


#: Few processes, so that runs interleave and recur.
PROCESSES = st.sampled_from(((1, 0), (1, 1), (2, 0), (3, 4)))


@st.composite
def trace_frames(draw) -> dict:
    """Rows of interleaving processes: an activity's uid is mostly the
    previous one + 1 and sometimes a jump of either sign, and a
    compensation names an earlier or a later uid."""
    rows: list[list] = []
    uid = draw(st.integers(min_value=0, max_value=10**6))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        pid, incarnation = draw(PROCESSES)
        kind = draw(st.sampled_from("aaaCA"))
        if kind != "a":
            rows.append([kind, pid, incarnation])
            continue
        uid += draw(st.just(1) | st.integers(min_value=-50, max_value=50))
        offset = draw(st.none() | st.integers(min_value=-20, max_value=20))
        rows.append(
            [
                "a",
                pid,
                incarnation,
                draw(st.sampled_from(("book", "pay", "ship", "book^-1"))),
                uid,
                None if offset is None else uid + offset,
            ]
        )
    return {"start": draw(COUNTS), "events": rows}


@given(trace_frames())
@example({"start": 4, "events": [["a", 9, 0, "pay", 77, None]]})
@example({"start": 0, "events": [["C", 1, 0], ["A", 2, 1], ["C", 2, 1]]})
@example({"start": 0, "events": []})
@example(
    {
        "start": 9,
        "events": [
            ["a", 1, 0, "book", 1, None],
            ["a", 2, 0, "book", 2, None],
            ["a", 1, 0, "book^-1", 3, 1],
            ["a", 1, 0, "book^-1", 3, 7],
            ["a", 1, 0, "pay", -2, None],
            ["C", 1, 0],
        ],
    }
)
def test_run_encoded_trace_frames_round_trip(frame):
    """Runs, the name table and the uid deltas give back every row."""
    decoded = TRACE.decode(TRACE.encode(frame))
    assert decoded == frame
    for row in decoded["events"]:
        assert len(row) == (6 if row[0] == "a" else 3), row


def test_a_trace_frame_is_the_same_bytes_at_every_encode():
    """Equal events are equal bytes: one name table in order of first
    use, one run per stretch of a process, a bare name index where the
    uid is the previous one + 1."""
    rows = [
        ["a", 3, 0, "book", 40, None],
        ["a", 3, 0, "pay", 41, None],
        ["a", 5, 1, "book", 42, None],
        ["a", 3, 0, "ship", 44, None],
        ["a", 5, 1, "book^-1", 45, 42],
        ["A", 5, 1],
        ["C", 3, 0],
    ]
    first = TRACE.encode({"start": 7, "events": rows})
    assert first == (
        b'[7,["book","pay","ship","book^-1"],'
        b'[[3,0,[0,40],1],[5,1,0],[3,0,[2,2]],[5,1,[3,1,-3],"A"],'
        b'[3,0,"C"]]]'
    )
    again = {"start": 7, "events": [list(row) for row in rows]}
    assert TRACE.encode(again) == first
    assert TRACE.encode(TRACE.decode(first)) == first


def test_every_event_kind_and_flag_combination_round_trips():
    kinds = set()
    events = [
        ScheduleEvent(position=0, process=(1, 0), kind=EventKind.COMMIT),
        ScheduleEvent(position=1, process=(2, 3), kind=EventKind.ABORT),
    ]
    for activity_type in REGISTRY:
        events.append(
            ScheduleEvent(
                position=len(events),
                process=(4, 1),
                kind=EventKind.ACTIVITY,
                name=activity_type.name,
                uid=len(events) + 10,
                compensates=1 if activity_type.is_compensation else None,
                compensatable=activity_type.compensatable,
                point_of_no_return=activity_type.point_of_no_return,
            )
        )
    for event in events:
        kinds.add((event.kind, event.compensatable, event.point_of_no_return))
        row = trace_event_to_row(event)
        assert trace_event_from_row(row, event.position, CODEC) == event
    assert {kind for kind, _, _ in kinds} == set(EventKind)
    # compensatable, pivot / retriable, and compensation activities.
    assert {(c, p) for kind, c, p in kinds if kind is EventKind.ACTIVITY} == {
        (True, False),
        (False, True),
        (False, False),
    }


def test_the_terminal_layout_holds_every_process_record_field():
    stored = {name for name, _ in JOURNAL.kinds["terminal"].fields}
    assert stored == {spec.name for spec in fields(ProcessRecord)}


def test_no_key_name_goes_to_disk():
    record = _terminal(COMPENSATED, "aborted")
    assert JOURNAL.encode(record) == (
        b'["t",7,"a",0.30000000000000004,null,2,'
        b'["act00","act01"],["intrinsic-abort","protocol-abort"]]'
    )
    assert subsystem_data("bank").encode(
        {"kind": "txn", "writes": {"bank:k": 0, "bank:j": None}}
    ) == b'["t",{"k":0,"j":null}]'
    assert codec_for("ssdata/bank").encode(
        {"kind": "txn", "writes": {"bank:k": 0, "j": None}}
    ) == b'["t",{"k":0,":j":null}]'


# ----------------------------------------------------------------------
# malformed rows
# ----------------------------------------------------------------------
#: Per namespace: a wrong-arity row, an unknown kind tag, a record of
#: the keyed format 3, and a field of the wrong type.  The trace's are
#: format 5 frames (``[start, [row, ...]]``) with such a row, or keyed,
#: and refused for that shape; ``MALFORMED_RUNS`` damages the runs.
MALFORMED = {
    "journal": (
        b'["s",1,0]',
        b'["q",1]',
        b'{"at":0.0,"kind":"submit","pid":1,"program":0}',
        b'["s","1",0,0.0]',
    ),
    "trace": (
        b'[0,[["a",1,0,"book",1]]]',
        b'[0,[["z",1,0]]]',
        b'{"events":[[[1,0],"commit","",0,null,false,false]],"start":0}',
        b'[0,[["C",1,"0"]]]',
    ),
    "ssdata/a": (
        b'["t",{"k":1},{}]',
        b'["u","k"]',
        b'{"key":"k","value":1}',
        b'["t",[["k",1]]]',
    ),
}


@pytest.mark.parametrize(
    "namespace, payload",
    [
        (namespace, payload)
        for namespace, payloads in MALFORMED.items()
        for payload in payloads
    ],
)
def test_a_malformed_row_is_refused_typed(namespace, payload):
    with pytest.raises(WalCorruptionError) as caught:
        codec_for(namespace).decode(payload, namespace)
    assert caught.value.namespace == namespace


#: ``terminal`` rows of the wrong shape: arity outside 3 to 13 fields,
#: an outcome that is no letter of ``OUTCOME_LETTERS`` (format 6 spelled
#: it out), and a field of the wrong type, kept or trailing.
MALFORMED_TERMINALS = {
    "no-submitted-at": b'["t",1,"c"]',
    "no-outcome": b'["t",1]',
    "one-field-too-many": b'["t",1,"c",0.0,null,0,0,0,0,0.0,[],[],null,0,0]',
    "unknown-letter": b'["t",1,"z",0.0]',
    "spelled-out-outcome": b'["t",1,"committed",0.0,27.5]',
    "outcome-type": b'["t",1,1,0.0]',
    "submitted-at-type": b'["t",1,"c","0.0"]',
    "count-type": b'["t",1,"c",0.0,9.5,"3"]',
    "count-float": b'["t",1,"c",0.0,9.5,3.0]',
    "names-type": b'["t",1,"a",0.0,null,0,0,0,1,2.0,"act00"]',
    "last-field-type": b'["t",1,"c",0.0,9.5,3,0,0,0,0.0,[],[],null,"0"]',
}


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(payload, id=name)
        for name, payload in MALFORMED_TERMINALS.items()
    ],
)
def test_a_malformed_terminal_row_is_refused_naming_the_journal(payload):
    with pytest.raises(WalCorruptionError) as caught:
        JOURNAL.decode(payload, "journal")
    assert caught.value.namespace == "journal"


#: Trace frames whose runs are malformed, and a frame of format 5; the
#: frames of the wrong shape are listed beside them below.
MALFORMED_RUNS = {
    "run-without-pid": b'[0,["book"],[["C"]]]',
    "run-without-items": b'[0,["book"],[[1,0]]]',
    "run-not-a-list": b'[0,["book"],[1]]',
    "incarnation-type": b'[0,["book"],[[1,"0",0]]]',
    "index-past-names": b'[0,["book"],[[1,0,1]]]',
    "index-negative": b'[0,["book"],[[1,0,[-1,4]]]]',
    "index-empty-names": b'[0,[],[[1,0,0]]]',
    "item-unknown-tag": b'[0,["book"],[[1,0,"Z"]]]',
    "item-float": b'[0,["book"],[[1,0,0.5]]]',
    "item-bool": b'[0,["book"],[[1,0,true]]]',
    "item-short": b'[0,["book"],[[1,0,[0]]]]',
    "item-long": b'[0,["book"],[[1,0,[0,1,2,3]]]]',
    "item-delta-type": b'[0,["book"],[[1,0,[0,1.5]]]]',
    "names-type": b'[0,["book",1],[[1,0,0]]]',
    "start-negative": b'[-1,[],[]]',
    "format-5": b'[0,[["a",1,0,"book",1,null],["C",1,0]]]',
}


@pytest.mark.parametrize(
    "payload",
    (
        b"[1,2]",
        b"[]",
        b"7",
        b'[-1,[]]',
        b"[0,{}]",
        *(
            pytest.param(payload, id=name)
            for name, payload in MALFORMED_RUNS.items()
        ),
    ),
)
def test_a_malformed_trace_frame_is_refused_typed(payload):
    with pytest.raises(WalCorruptionError) as caught:
        TRACE.decode(payload)
    assert caught.value.namespace == "trace"


def test_an_unknown_activity_name_is_refused_typed():
    with pytest.raises(WalCorruptionError) as caught:
        trace_event_from_row(["a", 1, 0, "nope", 3, None], 0, CODEC)
    assert caught.value.namespace == "trace"


# ----------------------------------------------------------------------
# through the store: verify, restart and describe
# ----------------------------------------------------------------------
SPEC = WorkloadSpec(
    n_processes=6,
    conflict_density=0.4,
    failure_probability=0.08,
    grounded=True,
    seed=5,
)


def _config(path) -> ServiceConfig:
    return ServiceConfig(
        spec=SPEC,
        seed=5,
        store="log",
        store_path=str(path),
        store_fsync="never",
        snapshot_every=4,
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A grounded store, six processes in: every namespace kind in it."""
    path = tmp_path_factory.mktemp("served") / "store"
    service = ProcessLockingService(_config(path)).start()
    for program in range(6):
        service.execute(
            {"cmd": "submit", "program": program, "wait": True}
        ).result(timeout=60)
    service.stop()
    return path


@pytest.mark.parametrize("shape", (0, 1, 2), ids=("arity", "tag", "format-3"))
@pytest.mark.parametrize("kind", tuple(MALFORMED))
def test_verify_and_restart_refuse_a_malformed_row(
    served, tmp_path, capsys, kind, shape
):
    path = tmp_path / "store"
    shutil.copytree(served, path)
    namespace = kind.replace("/a", "/" + _subsystem(path))
    backend = AppendLogBackend(str(path), fsync="never")
    backend.append(namespace, MALFORMED[kind][shape])
    backend.close()
    capsys.readouterr()
    assert repro_main(["store", "verify", "--path", str(path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["corrupt"] == [namespace]
    assert report["namespaces"][namespace]["error"]
    with pytest.raises(WalCorruptionError) as caught:
        ProcessLockingService(_config(path))
    assert caught.value.namespace == namespace


def test_verify_and_restart_refuse_a_corrupted_run_frame(
    served, tmp_path, capsys
):
    """A run naming a name the frame's table does not hold, appended
    past everything: ``store verify`` exits 2 and a restart refuses."""
    path = tmp_path / "store"
    shutil.copytree(served, path)
    backend = AppendLogBackend(str(path), fsync="never")
    backend.append("trace", MALFORMED_RUNS["index-past-names"])
    backend.close()
    capsys.readouterr()
    assert repro_main(["store", "verify", "--path", str(path), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["corrupt"] == ["trace"]
    with pytest.raises(WalCorruptionError) as caught:
        ProcessLockingService(_config(path))
    assert caught.value.namespace == "trace"


def _subsystem(path) -> str:
    store = Store.open("log", str(path))
    try:
        return store.subsystem_names()[0]
    finally:
        store.close()


def test_describe_reports_frames_and_bytes_per_namespace(
    served, tmp_path, capsys
):
    path = tmp_path / "store"
    shutil.copytree(served, path)
    expected: dict[str, list[int]] = {}
    for namespace, payload, _ in log_frames(log_path(path).read_bytes()):
        entry = expected.setdefault(namespace, [0, 0])
        entry[0] += 1
        entry[1] += 8 + 1 + len(payload)  # header, tag byte, payload
    for slot in ("meta", "snapshot"):
        expected[slot] = [1, (path / f"{slot}.log").stat().st_size]
    store = Store.open("log", str(path))
    try:
        described = store.describe()["namespaces"]
        assert {
            name: [entry["frames"], entry["bytes"]]
            for name, entry in described.items()
        } == expected
        assert {"journal", "trace"} < set(described)
        assert any(name.startswith("ssdata/") for name in described)
        # An append counts at once, as the next open's scan would.
        store.journal.append({"kind": "cancel", "pid": 1})
        grown = store.describe()["namespaces"]["journal"]
        assert grown == {
            "frames": expected["journal"][0] + 1,
            "bytes": expected["journal"][1] + 9 + len(b'["c",1]'),
        }
    finally:
        store.close()
    capsys.readouterr()
    assert repro_main(["store", "inspect", "--path", str(path)]) == 0
    shown = capsys.readouterr().out
    assert '"namespaces"' in shown and '"bytes"' in shown
