"""Serialization between live scheduler state and durable records.

Every record the store *appends* is one positional JSON array, and this
module is the one place that says which field sits where
(``docs/persistence.md``, "Record layout", has the table):

* **journal** — ``submit`` / ``terminal`` / ``cancel``, the redo records
  recovery reads (a ``cancel`` with no ``terminal`` after it is
  re-applied).  A ``terminal`` record carries the final
  :class:`~repro.scheduler.events.ProcessRecord`: it is the one durable
  home of a finished process, and of its pid.  Its outcome is one
  letter, its fields go common first, and the fields that end it at
  their defaults are left out.
* **trace** — the observed schedule's events, one frame of them per
  checkpoint, grouped into per-process runs with a name table and uid
  deltas (:class:`_TraceCodec`); a frame decodes to the same rows.
* **subsystem data** (``ssdata/<name>``) — one ``txn`` redo record
  per committed subsystem transaction that wrote: the final value of
  every key it wrote, as one JSON object whose names are relative to
  the subsystem (:class:`_DataCodec`).  Nothing else of a subsystem
  is stored (no undo log): the subsystems are no-steal, so no
  uncommitted value reaches disk, and the codec's CRC-checked framing
  keeps a ``txn`` frame whole or drops it whole, so a cut of the log
  holds all of a transaction or none of it.  A read-only or aborted
  transaction writes nothing.

A record on disk is ``[tag, *fields]``: a one-letter tag naming its kind,
then its fields in the order :data:`JOURNAL` and :func:`subsystem_data`
list them; no field name is stored.  (A trace frame is ``[start, names,
runs]``: one kind, no tag; :func:`trace_event_to_row` says what one
of its rows holds.)  The repositories
of :mod:`repro.storage.facade` encode and decode through these codecs,
so everyone else reads *logical* records — the dicts (and trace rows)
they always read.  Decoding checks the tag, the
arity and the type of every field: a row of any other shape is a
:class:`~repro.errors.WalCorruptionError`, never a ``TypeError`` later.

Some things are not stored because decoding re-derives them exactly: a
trace row's ``compensatable`` / ``point_of_no_return`` flags, which the
activity type named by the row fixes (:meth:`ProgramCodec.activity_type`),
every field of a commit or abort event but its process (the recorder
leaves them at their defaults), the trailing fields of a ``terminal``
row that are at their defaults (:attr:`Kind.defaults`), and the
subsystem's own name in front of a ``txn`` record's keys.

The **checkpoint document** is not appended but swapped whole into the
snapshot slot, as one keyed JSON object: what is left of a
:class:`~repro.scheduler.recovery.CrashImage` once the trace and the
finished processes live elsewhere — the continuations of live and
``awaiting-resubmit`` processes, the records of still-undecided pids,
and the journal and trace watermarks (``journal_lsn``, ``trace_len``)
the checkpoint covers.

Programs are referenced by **catalog index**: the persistence plane is
always bound to a submission catalog (the workload's program list),
and the catalog is deterministically rebuilt from the workload spec on
restart — storing indexes keeps snapshots small and avoids pickling
program graphs.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, fields
from typing import NamedTuple

from repro.errors import StorageError, WalCorruptionError
from repro.scheduler.events import ProcessRecord
from repro.scheduler.recovery import (
    CrashImage,
    LedgerRecord,
    ProcessSnapshot,
    ScopeRecord,
)
from repro.theory.schedule import EventKind, ScheduleEvent


class ProgramCodec:
    """Maps catalog programs to stable indexes and back, and activity
    type names to the types the catalog's programs invoke."""

    def __init__(self, catalog) -> None:
        self.catalog = list(catalog)
        self._index = {
            id(program): index
            for index, program in enumerate(self.catalog)
        }
        self._types = {
            activity_type.name: activity_type
            for program in self.catalog
            for activity_type in program.registry
        }

    def index_of(self, program) -> int:
        try:
            return self._index[id(program)]
        except KeyError:
            raise StorageError(
                "cannot persist a process whose program is not in the "
                "submission catalog"
            ) from None

    def program_at(self, index: int):
        try:
            return self.catalog[index]
        except IndexError:
            raise StorageError(
                f"snapshot references catalog program {index}, but the "
                f"catalog only has {len(self.catalog)} entries"
            ) from None

    def activity_type(self, name: str):
        try:
            return self._types[name]
        except KeyError:
            raise WalCorruptionError(
                f"the trace names activity type {name!r}, which no "
                "catalog program's registry defines",
                namespace="trace",
            ) from None


# ----------------------------------------------------------------------
# appended records: one positional JSON array each
# ----------------------------------------------------------------------
def _int(value) -> bool:
    return type(value) is int


def _number(value) -> bool:
    return type(value) is int or type(value) is float


def _stamp(value) -> bool:
    """A time that may not have happened."""
    return value is None or _number(value)


def _text(value) -> bool:
    return type(value) is str


def _texts(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


#: A ``terminal`` row's outcome, one letter per member of
#: :data:`~repro.scheduler.events.OUTCOMES`.
OUTCOME_LETTERS = {
    "committed": "c",
    "aborted": "a",
    "cancelled": "x",
    "starved": "s",
}
_OUTCOMES_BY_LETTER = {
    letter: outcome for outcome, letter in OUTCOME_LETTERS.items()
}


def _outcome_letter(value) -> bool:
    return _text(value) and value in _OUTCOMES_BY_LETTER


def _writes(value) -> bool:
    """A transaction's ``{key: value}``; JSON names are strings."""
    return type(value) is dict


class Kind(NamedTuple):
    """One record kind: the tag that leads its row, then its fields in
    order, each with the check a decoded value must pass."""

    name: str
    tag: str
    fields: tuple[tuple[str, Callable[[object], bool]], ...]
    #: The defaults of the last ``len(defaults)`` fields.  A row ends
    #: before the first of a trailing stretch of them that is at its
    #: default, and decoding puts the defaults back.
    defaults: tuple = ()


def _at_default(value, default) -> bool:
    """Whether ``value`` is ``default`` as JSON writes it (``0`` is not
    ``0.0``, and ``-0.0`` is not ``0.0``)."""
    return (
        type(value) is type(default)
        and value == default
        and repr(value) == repr(default)
    )


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _dump_row(row: list) -> bytes:
    """Compact JSON bytes for one positional row."""
    return _COMPACT.encode(row).encode("utf-8")


def loads(payload: bytes, namespace: str = ""):
    """The JSON value of one payload, or a typed corruption error."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalCorruptionError(
            f"undecodable record: {exc}", namespace=namespace
        ) from None


class RecordCodec:
    """The records of one namespace: each one ``[tag, *fields]``.

    A logical record is a dict of its kind's fields plus ``"kind"``;
    :meth:`split` and :meth:`join` are where a namespace whose records
    look otherwise says so.
    """

    def __init__(self, *kinds: Kind) -> None:
        self.kinds = {kind.name: kind for kind in kinds}
        self._tags = {kind.tag: kind for kind in kinds}

    def split(self, record: dict) -> tuple[str, dict]:
        """A logical record's kind and the dict its fields are read from."""
        return record["kind"], record

    def join(self, kind: str, values: dict) -> dict:
        """The logical record of a decoded row."""
        return {"kind": kind, **values}

    def row(self, kind: str, values: dict) -> list:
        """``[tag, *fields]``, ending before the trailing fields that
        are at their defaults."""
        spec = self.kinds[kind]
        row = [spec.tag, *(values[name] for name, _ in spec.fields)]
        floor = len(row) - len(spec.defaults)
        while len(row) > floor and _at_default(
            row[-1], spec.defaults[len(row) - 1 - floor]
        ):
            row.pop()
        return row

    def fields(self, row, namespace: str = "") -> tuple[str, dict]:
        """The kind and fields of a decoded ``row``; raises
        :class:`WalCorruptionError` unless it has its kind's shape."""
        spec = (
            self._tags.get(row[0])
            if type(row) is list and row and type(row[0]) is str
            else None
        )
        if spec is None:
            raise WalCorruptionError(
                f"record {row!r:.80} has no known kind tag",
                namespace=namespace,
            )
        most = len(spec.fields)
        least = most - len(spec.defaults)
        if not least <= len(row) - 1 <= most:
            arity = f"{least} to {most}" if least < most else f"{most}"
            raise WalCorruptionError(
                f"{spec.name} record {row!r:.80} has {len(row) - 1} "
                f"fields, not {arity}",
                namespace=namespace,
            )
        for (name, check), value in zip(spec.fields, row[1:]):
            if not check(value):
                raise WalCorruptionError(
                    f"{spec.name} record {row!r:.80}: bad {name} "
                    f"{value!r:.40}",
                    namespace=namespace,
                )
        values = {
            name: value for (name, _), value in zip(spec.fields, row[1:])
        }
        for (name, _), default in zip(
            spec.fields[len(row) - 1:], spec.defaults[len(row) - 1 - least:]
        ):
            values[name] = list(default) if type(default) is list else default
        return spec.name, values

    def encode(self, record: dict) -> bytes:
        return _dump_row(self.row(*self.split(record)))

    def decode(self, payload: bytes, namespace: str = "") -> dict:
        return self.join(*self.fields(loads(payload, namespace), namespace))


#: A terminal record's :class:`ProcessRecord` fields after ``pid`` (the
#: record's own, stored once), ``outcome`` (stored beside them) and
#: ``submitted_at``, each with the default a row may leave it out at
#: (:attr:`Kind.defaults`): the one nearly every process sets, then
#: those only a process that was resubmitted or compensated does.
_PROCESS_RECORD_TAIL = (
    ("committed_at", _stamp, None),
    ("resubmissions", _int, 0),
    ("compensated_names", _texts, []),
    ("compensated_causes", _texts, []),
)


class _JournalCodec(RecordCodec):
    """A ``terminal`` record nests its process record under
    ``"record"``; its row holds the fields flat, and its outcome as one
    letter (:data:`OUTCOME_LETTERS`)."""

    def split(self, record: dict) -> tuple[str, dict]:
        if record["kind"] == "terminal":
            return "terminal", {
                **record["record"],
                "pid": record["pid"],
                "outcome": OUTCOME_LETTERS[record["outcome"]],
            }
        return record["kind"], record

    def join(self, kind: str, values: dict) -> dict:
        if kind != "terminal":
            return {"kind": kind, **values}
        pid, letter = values.pop("pid"), values.pop("outcome")
        return {
            "kind": kind,
            "pid": pid,
            "outcome": _OUTCOMES_BY_LETTER[letter],
            "record": {"pid": pid, **values},
        }


class _DataCodec(RecordCodec):
    """``txn`` records whose keys are stored relative to ``prefix``.

    A subsystem's keys are named ``"<subsystem>:<key>"``, and its
    namespace names the subsystem already, so a key that starts with
    the prefix is stored without it.  Any other key — and one whose
    rest starts with ``":"`` — is stored whole behind a ``":"``, so
    every key reads back as it was written.
    """

    def __init__(self, prefix: str) -> None:
        super().__init__(Kind("txn", "t", (("writes", _writes),)))
        self.prefix = prefix

    def relative(self, key: str) -> str:
        """``key`` as a stored row names it."""
        prefix = self.prefix
        if key.startswith(prefix) and not key.startswith(":", len(prefix)):
            return key[len(prefix):]
        return ":" + key

    def absolute(self, stored: str) -> str:
        """The key a stored name stands for."""
        if stored.startswith(":"):
            return stored[1:]
        return self.prefix + stored

    def split(self, record: dict) -> tuple[str, dict]:
        relative = self.relative
        return record["kind"], {
            "writes": {
                relative(key): value
                for key, value in record["writes"].items()
            }
        }

    def join(self, kind: str, values: dict) -> dict:
        absolute = self.absolute
        return {
            "kind": kind,
            "writes": {
                absolute(key): value
                for key, value in values["writes"].items()
            },
        }


class _TraceCodec:
    """A frame ``{"start": p, "events": [row, ...]}`` of trace rows
    (:func:`trace_event_to_row`) as ``[p, names, runs]``.

    ``names`` lists the frame's distinct activity names in order of
    first use.  A run ``[pid, incarnation, item, ...]`` holds
    consecutive events of one process, one item each: ``"C"`` or
    ``"A"`` for a commit or abort; for an activity, the index of its
    name when its uid is the previous activity's uid + 1, else
    ``[index, uid - previous]``; for a compensation ``[index,
    uid - previous, compensates - uid]``.  The previous uid is 0 at
    the start of a frame: every frame decodes on its own, since one
    that starts inside its predecessor supersedes it.
    """

    def encode(self, frame: dict) -> bytes:
        names: dict[str, int] = {}
        runs: list[list] = []
        process = None
        previous = 0
        for row in frame["events"]:
            if (row[1], row[2]) != process:
                process = (row[1], row[2])
                run = [*process]
                runs.append(run)
            if row[0] != "a":
                run.append(row[0])
                continue
            _, _, _, name, uid, compensates = row
            index = names.setdefault(name, len(names))
            if compensates is not None:
                run.append([index, uid - previous, compensates - uid])
            elif uid == previous + 1:
                run.append(index)
            else:
                run.append([index, uid - previous])
            previous = uid
        return _dump_row([frame["start"], list(names), runs])

    def decode(self, payload: bytes, namespace: str = "trace") -> dict:
        frame = loads(payload, namespace)
        if not (
            type(frame) is list
            and len(frame) == 3
            and _int(frame[0])
            and frame[0] >= 0
            and _texts(frame[1])
            and type(frame[2]) is list
        ):
            raise WalCorruptionError(
                f"trace frame {frame!r:.80} is not [start, names, runs]",
                namespace=namespace,
            )
        names = frame[1]
        rows: list[list] = []
        previous = 0
        for run in frame[2]:
            if not (
                type(run) is list
                and len(run) > 2
                and _int(run[0])
                and _int(run[1])
            ):
                raise WalCorruptionError(
                    f"trace run {run!r:.80} is not [pid, incarnation, "
                    "item, ...]",
                    namespace=namespace,
                )
            pid, incarnation = run[0], run[1]
            for item in run[2:]:
                if item == "C" or item == "A":
                    rows.append([item, pid, incarnation])
                    continue
                if type(item) is int:
                    index, uid, compensates = item, previous + 1, None
                elif (
                    type(item) is list
                    and 2 <= len(item) <= 3
                    and all(map(_int, item))
                ):
                    index, uid = item[0], previous + item[1]
                    compensates = uid + item[2] if len(item) == 3 else None
                else:
                    index = -1  # refused below
                if not 0 <= index < len(names):
                    raise WalCorruptionError(
                        f"trace run of process ({pid}, {incarnation}): "
                        f"bad item {item!r:.40} (names: {len(names)})",
                        namespace=namespace,
                    )
                rows.append(
                    ["a", pid, incarnation, names[index], uid, compensates]
                )
                previous = uid
        return {"start": frame[0], "events": rows}


JOURNAL = _JournalCodec(
    Kind("submit", "s", (("pid", _int), ("program", _int), ("at", _number))),
    Kind(
        "terminal",
        "t",
        (
            ("pid", _int),
            ("outcome", _outcome_letter),
            ("submitted_at", _number),
            *((name, check) for name, check, _ in _PROCESS_RECORD_TAIL),
        ),
        tuple(default for _, _, default in _PROCESS_RECORD_TAIL),
    ),
    Kind("cancel", "c", (("pid", _int),)),
)

TRACE = _TraceCodec()

def subsystem_data(name: str) -> _DataCodec:
    """The codec of subsystem ``name``'s ``txn`` records: its keys
    ``"<name>:<key>"`` stored as ``"<key>"``."""
    return _DataCodec(name + ":")


# ----------------------------------------------------------------------
# process snapshots
# ----------------------------------------------------------------------
def snapshot_to_dict(
    snapshot: ProcessSnapshot, codec: ProgramCodec
) -> dict:
    return {
        "pid": snapshot.pid,
        "timestamp": snapshot.timestamp,
        "incarnation": snapshot.incarnation,
        "program": codec.index_of(snapshot.program),
        "state": snapshot.state,
        "wcc": snapshot.wcc,
        "next_seq": snapshot.next_seq,
        "current_node_id": snapshot.current_node_id,
        "pending_launch": list(snapshot.pending_launch),
        "unwinding": snapshot.unwinding,
        "ledger": [asdict(record) for record in snapshot.ledger],
        "scopes": [asdict(record) for record in snapshot.scopes],
        "pivot_treated": snapshot.pivot_treated,
        "abort_then": snapshot.abort_then,
        "resubmit_in": snapshot.resubmit_in,
    }


def snapshot_from_dict(data: dict, codec: ProgramCodec) -> ProcessSnapshot:
    return ProcessSnapshot(
        pid=data["pid"],
        timestamp=data["timestamp"],
        incarnation=data["incarnation"],
        program=codec.program_at(data["program"]),
        state=data["state"],
        wcc=data["wcc"],
        next_seq=data["next_seq"],
        current_node_id=data["current_node_id"],
        pending_launch=tuple(data["pending_launch"]),
        unwinding=data["unwinding"],
        ledger=tuple(
            LedgerRecord(**record) for record in data["ledger"]
        ),
        scopes=tuple(
            ScopeRecord(**record) for record in data["scopes"]
        ),
        pivot_treated=data["pivot_treated"],
        abort_then=data["abort_then"],
        resubmit_in=data["resubmit_in"],
    )


# ----------------------------------------------------------------------
# trace events (the splice)
# ----------------------------------------------------------------------
#: The tag of a commit or abort row: the paper's ``C_i`` / ``A_i``.
_END_TAGS = {EventKind.COMMIT: "C", EventKind.ABORT: "A"}
_END_KINDS = {tag: kind for kind, tag in _END_TAGS.items()}


def trace_event_to_row(event: ScheduleEvent) -> list:
    """One event as a trace row: ``["a", pid, incarnation, name, uid,
    compensates]`` for an activity, ``["C" | "A", pid, incarnation]``
    for a commit or abort.

    The position is not stored: an event's position *is* its index in
    the trace (:class:`~repro.scheduler.trace.TraceRecorder` numbers
    them so), and each trace frame carries its start position.
    """
    pid, incarnation = event.process
    if event.kind is EventKind.ACTIVITY:
        return [
            "a", pid, incarnation, event.name, event.uid, event.compensates
        ]
    return [_END_TAGS[event.kind], pid, incarnation]


def trace_event_from_row(
    row: list, position: int, codec: ProgramCodec
) -> ScheduleEvent:
    """The event ``row`` stands for; ``codec`` knows its activity type.

    ``row`` is one :meth:`_TraceCodec.decode` checked: the frame
    decoder is the one check of what is on disk.
    """
    if row[0] != "a":
        return ScheduleEvent(
            position, (row[1], row[2]), _END_KINDS[row[0]]
        )
    _, pid, incarnation, name, uid, compensates = row
    activity_type = codec.activity_type(name)
    return ScheduleEvent(
        position=position,
        process=(pid, incarnation),
        kind=EventKind.ACTIVITY,
        name=name,
        uid=uid,
        compensates=compensates,
        compensatable=activity_type.compensatable,
        point_of_no_return=activity_type.point_of_no_return,
    )


# ----------------------------------------------------------------------
# process records
# ----------------------------------------------------------------------
#: ``(name, is_list)`` per stored :class:`ProcessRecord` field: every
#: field but ``outcome``; the list fields (empty tuples by default)
#: are copied into lists, as ``asdict`` would.
_RECORD_PLAN = tuple(
    (spec.name, type(spec.default) is tuple)
    for spec in fields(ProcessRecord)
    if spec.name != "outcome"
)


def record_to_dict(record: ProcessRecord) -> dict:
    """Without ``outcome``: a ``terminal`` journal record carries it
    next to this dict, and nothing else that is stored has one yet.

    Equal to ``asdict(record)`` less ``outcome``, built from a field
    plan instead of a recursive deep copy (one per terminal record).
    """
    return {
        name: list(getattr(record, name))
        if is_list
        else getattr(record, name)
        for name, is_list in _RECORD_PLAN
    }


def record_from_dict(data: dict, outcome=None) -> ProcessRecord:
    """The record ``data`` holds; with no compensation its lists are
    the shared empty default, as in a record that never compensated."""
    record = ProcessRecord(**data, outcome=outcome)
    if not (record.compensated_names or record.compensated_causes):
        record.compensated_names = record.compensated_causes = ()
    return record


# ----------------------------------------------------------------------
# the checkpoint document
# ----------------------------------------------------------------------
def checkpoint_to_dict(
    snapshots: list[ProcessSnapshot],
    records: dict[int, ProcessRecord],
    codec: ProgramCodec,
    *,
    journal_lsn: int,
    trace_len: int,
    crashed_at: float,
    max_pid: int,
) -> dict:
    """The snapshot document: live state plus the two watermarks.

    ``records`` holds only the pids with no terminal journal record
    yet; the trace lives in its own namespace, ``trace_len`` events of
    which this checkpoint covers.
    """
    return {
        "journal_lsn": journal_lsn,
        "trace_len": trace_len,
        "crashed_at": crashed_at,
        "max_pid": max_pid,
        "processes": [
            snapshot_to_dict(snapshot, codec) for snapshot in snapshots
        ],
        "records": {
            str(pid): record_to_dict(record)
            for pid, record in records.items()
        },
    }


def checkpoint_from_dict(data: dict, codec: ProgramCodec) -> CrashImage:
    """The crash image a checkpoint document describes.

    The trace prefix the document's ``trace_len`` covers stays in the
    ``trace`` namespace: the image carries its length only.
    ``records`` comes back holding only what the document carries; the
    caller adds the finished processes from their ``terminal`` journal
    records.
    """
    return CrashImage(
        snapshots=[
            snapshot_from_dict(entry, codec)
            for entry in data["processes"]
        ],
        trace_events=[],
        trace_base=data["trace_len"],
        records={
            int(pid): record_from_dict(record)
            for pid, record in data["records"].items()
        },
        crashed_at=data["crashed_at"],
        max_pid=data["max_pid"],
    )
