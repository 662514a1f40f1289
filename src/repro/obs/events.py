"""Typed trace events emitted by the instrumented simulation layers.

Every event is a plain dataclass carrying *why* something happened, not
just that it did: defers name the blocking holders (pid, timestamp, held
lock modes) and the paper rule that fired; cascades name the victims and
the timestamp comparison that doomed them; grants carry the sharing
position the lock was appended at.

Events are built on every emit, so they are plain (not frozen) slotted
dataclasses: a frozen one pays an ``object.__setattr__`` call per field
at construction.  Nothing mutates an event once emitted.

Events do **not** carry their own clock — the manager's fold
(:meth:`~repro.obs.metrics.MetricsTracer.emit`) stamps each emit with
the virtual time and a global sequence number, and every consumer
serializes the pair together with the payload through
:func:`flat_record`.  The flat record dictionaries are what the JSONL
log, the exporters, and the explain replay consume.  The same per-class
field plan says which fields may hold a non-finite float: every JSON
boundary writes those through :func:`json_record`, and
:func:`restore_record` / :func:`record_to_event` read them back.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields

from repro.core.decisions import (  # noqa: F401  (re-exported)
    RULE_BY_REASON,
    rule_for_reason,
)


@dataclass(frozen=True, slots=True)
class Holder:
    """One blocking lock holder as seen at decision time."""

    pid: int
    timestamp: int
    #: Lock modes the holder currently has on the table ("C", "P", or
    #: "CP"); empty when the holder holds no locks (e.g. a cascade
    #: victim whose abort the requester awaits).
    modes: str = ""

    def describe(self) -> str:
        mode = f" holding {self.modes}" if self.modes else ""
        return f"P{self.pid} (ts {self.timestamp}){mode}"


# ----------------------------------------------------------------------
# process lifecycle
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ProcessSubmitted:
    kind = "process.submit"
    pid: int


@dataclass(slots=True)
class ProcessInitiated:
    kind = "process.init"
    pid: int
    timestamp: int
    incarnation: int = 0


@dataclass(slots=True)
class ProcessCommitted:
    kind = "process.commit"
    pid: int
    incarnation: int


@dataclass(slots=True)
class AbortBegun:
    """A process starts its abort-process execution."""

    kind = "process.abort-begin"
    pid: int
    incarnation: int
    #: "cascade", "deadlock", "self", "intrinsic", "subprocess", or
    #: "cancel" (client cancel of a running process, service front
    #: door).
    cause: str


@dataclass(slots=True)
class ProcessAborted:
    kind = "process.abort"
    pid: int
    incarnation: int
    resubmit: bool


@dataclass(slots=True)
class ProcessResubmitted:
    """A cascade victim restarts with its *original* timestamp."""

    kind = "process.resubmit"
    pid: int
    incarnation: int
    timestamp: int


@dataclass(slots=True)
class ProcessHeld:
    """The restart gate closed on a cascade victim's successor: it is
    not restarted while an older undecided process (``behind``) may
    still request a type conflicting with its first lock requests.
    Emitted once per hold; the ``process.resubmit`` that follows ends
    it."""

    kind = "process.held"
    pid: int
    incarnation: int
    behind: tuple[int, ...]


@dataclass(slots=True)
class ProcessCancelled:
    """A client explicitly cancelled the process (service front door).

    ``initiated`` distinguishes a cancel that had to abort a running
    process (compensations ran, no resubmission) from one that caught
    the process before initiation (nothing to undo — the scheduled
    initiation callback is simply dropped).
    """

    kind = "process.cancel"
    pid: int
    initiated: bool


@dataclass(slots=True)
class ProcessStarved:
    """Out of resubmissions: the ``process.abort`` after it is final."""

    kind = "process.starved"
    pid: int
    resubmissions: int


# ----------------------------------------------------------------------
# protocol decisions
# ----------------------------------------------------------------------
@dataclass(slots=True)
class LockGranted:
    kind = "lock.grant"
    pid: int
    incarnation: int
    #: "regular", "compensation", or "commit" (a commit grant carries no
    #: activity or position).
    request: str
    activity: str | None
    uid: int | None
    mode: str | None
    #: Global sharing position of the acquired lock entry.
    position: int | None = None


@dataclass(slots=True)
class LockDeferred:
    kind = "lock.defer"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
    uid: int | None
    mode: str | None
    reason: str
    rule: str
    blockers: tuple[Holder, ...] = ()
    #: Lock shard (subsystem) of the requested activity's type; ``None``
    #: for commit requests, which span all of the process's shards.
    shard: str | None = None


@dataclass(slots=True)
class CascadeRequested:
    """Timestamp order sacrifices the named running holders."""

    kind = "lock.cascade"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
    uid: int | None
    mode: str | None
    victims: tuple[Holder, ...] = ()
    #: As :attr:`LockDeferred.shard`.
    shard: str | None = None


@dataclass(slots=True)
class SelfAbortDecision:
    """The protocol told the *requester* to abort (baselines only)."""

    kind = "lock.self-abort"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
    uid: int | None
    reason: str
    rule: str


@dataclass(slots=True)
class LockConverted:
    """One Comp→Piv conversion (C lock upgraded to P in place)."""

    kind = "lock.convert"
    pid: int
    type_name: str
    position: int


@dataclass(slots=True)
class ActivityClassified:
    """Figure-1 treatment decision, with the Wcc charge that drove it."""

    kind = "wcc.classify"
    pid: int
    incarnation: int
    activity: str
    mode: str
    wcc: float
    threshold: float
    pseudo_pivot: bool
    real_pivot: bool


@dataclass(slots=True)
class UnresolvableCascade:
    """A compensation's cascade reached a *completing* holder, which
    cannot be aborted (pure OSL): the violation process locking's
    early verification prevents, counted and let through."""

    kind = "lock.unresolvable"
    pid: int
    activity: str
    holder: int


# ----------------------------------------------------------------------
# activity execution spans
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ActivityStarted:
    kind = "activity.start"
    pid: int
    incarnation: int
    activity: str
    uid: int
    compensation: bool = False


@dataclass(slots=True)
class ActivityRetried:
    kind = "activity.retry"
    pid: int
    activity: str
    uid: int
    attempt: int


@dataclass(slots=True)
class ActivityCommitted:
    kind = "activity.commit"
    pid: int
    incarnation: int
    activity: str
    uid: int
    compensation: bool = False
    #: A compensation only: the cost of the activity it undid, and the
    #: label of the run it belongs to (``protocol-abort:<cause>``,
    #: ``intrinsic-abort`` or ``subprocess-abort``) — what the
    #: ``compensated_cost_*`` counts are folded from.
    undone: float | None = None
    cause: str | None = None


@dataclass(slots=True)
class ActivityFailed:
    kind = "activity.fail"
    pid: int
    incarnation: int
    activity: str
    uid: int


@dataclass(slots=True)
class ActivityCancelled:
    """An in-flight activity of an abort victim was torn down."""

    kind = "activity.cancel"
    pid: int
    incarnation: int
    activity: str
    uid: int


# ----------------------------------------------------------------------
# deadlock resolution
# ----------------------------------------------------------------------
@dataclass(slots=True)
class DeadlockVictim:
    kind = "deadlock.victim"
    pid: int
    cycle: tuple[int, ...]


@dataclass(slots=True)
class UnresolvableForced:
    """Forced progress through an unresolvable wait cycle (baselines)."""

    kind = "deadlock.forced"
    pid: int
    request: str
    cycle: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FaultInjected:
    """One fault-injector action (any channel)."""

    kind = "fault.inject"
    #: "failure", "retry", "latency", "outage", "correlated-outage",
    #: "subsystem-crash", "manager-crash", or "manager-recover".
    channel: str
    pid: int | None = None
    activity: str | None = None
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# retry budgets (repro.faults.retry)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RetryBudgetExhausted:
    """A retry budget forced a failing retriable to count as success.

    With a bounded :class:`~repro.faults.retry.RetryPolicy` installed,
    an injected-failing retriable activity that reaches
    ``max_attempts`` is treated as successful to preserve guaranteed
    termination; this event makes that (previously silent) decision
    visible.
    """

    kind = "retry.budget_exhausted"
    pid: int
    activity: str
    uid: int
    attempts: int
    subsystem: str | None = None


# ----------------------------------------------------------------------
# durable storage (repro.storage)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class StoreRecovered:
    """Startup recovery finished replaying the durable store.

    ``adopted`` processes resumed mid-flight from the snapshot,
    ``resubmitted`` undecided submissions were re-scheduled under
    their original pids, and ``restored`` finished processes came back
    from terminal journal records without re-execution.
    """

    kind = "store.recovered"
    backend: str
    adopted: int
    resubmitted: int
    restored: int
    journal_records: int
    healed_namespaces: int
    #: Wall-clock recovery time (replay progress metric).
    seconds: float


@dataclass(slots=True)
class StoreSnapshot:
    """A checkpoint of the live crash image was swapped in."""

    kind = "store.snapshot"
    #: Live processes captured in the image.
    processes: int
    #: Journal length the snapshot covers (its replay watermark).
    journal_lsn: int


@dataclass(slots=True)
class StoreTornTail:
    """Recovery truncated an incomplete record at the end of a log.

    A torn tail is the signature of a crash mid-append; truncating to
    the last complete CRC-valid frame is deterministic and loses only
    the record(s) that were never acknowledged as durable.
    """

    kind = "store.torn_tail"
    namespace: str
    dropped_bytes: int


#: kind tag -> event class, for JSONL round-trips and exporters.
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ProcessSubmitted,
        ProcessInitiated,
        ProcessCommitted,
        AbortBegun,
        ProcessAborted,
        ProcessCancelled,
        ProcessStarved,
        ProcessHeld,
        ProcessResubmitted,
        LockGranted,
        LockDeferred,
        CascadeRequested,
        SelfAbortDecision,
        UnresolvableCascade,
        LockConverted,
        ActivityClassified,
        ActivityStarted,
        ActivityRetried,
        ActivityCommitted,
        ActivityFailed,
        ActivityCancelled,
        DeadlockVictim,
        UnresolvableForced,
        FaultInjected,
        RetryBudgetExhausted,
        StoreRecovered,
        StoreSnapshot,
        StoreTornTail,
    )
}


#: Field annotations whose values are immutable (scalars and tuples of
#: scalars), so the payload may hold the event's own object.
_SHARED_ANNOTATIONS = frozenset(
    {
        "int",
        "str",
        "bool",
        "float",
        "float | None",
        "int | None",
        "str | None",
        "tuple[int, ...]",
        "tuple[str, ...]",
    }
)

#: The one JSON spelling of a non-finite float.  Strict JSON has no
#: ``Infinity`` / ``NaN`` token (Perfetto's importer rejects one), yet
#: Wcc* = inf is the default threshold and a committed pivot drives Wcc
#: to inf.
NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def spell(value):
    """``value``, or its :data:`NONFINITE` spelling if it is a
    non-finite float."""
    if value != value:
        return "NaN"
    if value == math.inf or value == -math.inf:
        return "Infinity" if value > 0 else "-Infinity"
    return value


def unspell(value):
    """Inverse of :func:`spell`."""
    return NONFINITE.get(value, value) if isinstance(value, str) else value


def _spell_values(mapping: dict) -> dict:
    return {key: spell(value) for key, value in mapping.items()}


def _unspell_values(mapping: dict) -> dict:
    return {key: unspell(value) for key, value in mapping.items()}


def _holders(holders) -> tuple[dict, ...]:
    return tuple(
        {"pid": h.pid, "timestamp": h.timestamp, "modes": h.modes}
        for h in holders
    )


def _holder_tuple(items) -> tuple[Holder, ...]:
    return tuple(
        item if isinstance(item, Holder) else Holder(**item)
        for item in items
    )


#: Keys :func:`flat_record` stamps on every record.
STAMP_KEYS = ("seq", "t", "kind")


def _field_plan(cls) -> tuple:
    """``(name, convert, spelled, restore)`` per field: ``convert``
    builds the payload value, ``spelled`` is ``(spell, unspell)`` for a
    field that may hold a non-finite float (a ``float``, or the values
    of the one mapping, ``FaultInjected.detail``), and ``restore`` reads
    a JSON value back as the field's type; ``None`` means as it is.

    A field may not take a stamp's name: :func:`flat_record` lays the
    payload over ``seq`` / ``t`` / ``kind``.
    """
    plan = []
    for spec in fields(cls):
        if spec.name in STAMP_KEYS:
            raise TypeError(
                f"{cls.__name__}.{spec.name} would overwrite the "
                "record's stamp"
            )
        convert = spelled = restore = None
        if spec.type in ("float", "float | None"):
            spelled = (spell, unspell)
        elif spec.type == "tuple[Holder, ...]":
            convert, restore = _holders, _holder_tuple
        elif spec.type in ("tuple[int, ...]", "tuple[str, ...]"):
            restore = tuple
        elif spec.type == "dict":  # ``FaultInjected.detail``
            convert, spelled = copy.deepcopy, (_spell_values, _unspell_values)
        elif spec.type not in _SHARED_ANNOTATIONS:
            raise TypeError(
                f"{cls.__name__}.{spec.name}: no plan for {spec.type}"
            )
        if spelled is not None:
            restore = spelled[1]
        plan.append((spec.name, convert, spelled, restore))
    return tuple(plan)


_FIELD_PLANS: dict[type, tuple] = {
    cls: _field_plan(cls) for cls in EVENT_TYPES.values()
}

#: kind -> ``(name, spell, unspell)`` per field that may hold a
#: non-finite float; a kind with none is absent.
_SPELLED: dict[str, tuple] = {
    cls.kind: spelled
    for cls, plan in _FIELD_PLANS.items()
    if (spelled := tuple((name, *pair) for name, __, pair, __ in plan if pair))
}


def event_payload(event) -> dict:
    """Flat JSON-ready payload of one event (without stamp fields).

    A fresh dictionary equal to ``dataclasses.asdict(event)``, built
    from a per-class field plan instead of a recursive deep copy.
    """
    return {
        name: getattr(event, name)
        if convert is None
        else convert(getattr(event, name))
        for name, convert, __, __ in _FIELD_PLANS[type(event)]
    }


def flat_record(seq: int, t: float, event) -> dict:
    """The ``{seq, t, kind, **payload}`` record of one stamped event.

    The one spelling of what a JSONL line, a flight-ring dump and a bus
    frame carry; key order is part of the journal's byte format.
    """
    record = {"seq": seq, "t": t, "kind": event.kind}
    record.update(event_payload(event))
    return record


def json_record(record: dict) -> dict:
    """``record`` as a JSON boundary writes it: a copy with the fields
    its kind's plan marks spelled, or ``record`` itself if it has none
    (also a record of no event kind)."""
    plan = _SPELLED.get(record.get("kind"))
    if plan is None:
        return record
    record = record.copy()
    for name, spell_field, __ in plan:
        if name in record:
            record[name] = spell_field(record[name])
    return record


def restore_record(record: dict) -> dict:
    """Inverse of :func:`json_record`, in place; returns ``record``.
    Only the marked fields are read back, so an activity named
    ``"NaN"`` stays a string."""
    for name, __, unspell_field in _SPELLED.get(record.get("kind"), ()):
        if name in record:
            record[name] = unspell_field(record[name])
    return record


def record_to_event(record: dict):
    """Rebuild the typed event dataclass from one flat record.

    Inverse of :func:`flat_record` for the payload part, also straight
    off a JSON line: each field goes through its plan's ``restore``.
    Raises :class:`ValueError` on an unknown kind and
    :class:`TypeError` when required payload fields are missing (an
    absent optional field takes its default).
    """
    cls = EVENT_TYPES.get(record["kind"])
    if cls is None:
        raise ValueError(f"unknown event kind {record['kind']!r}")
    return cls(**{
        name: record[name] if restore is None else restore(record[name])
        for name, __, __, restore in _FIELD_PLANS[cls]
        if name in record
    })


# ----------------------------------------------------------------------
# the park rule: who waits for whom, read off the decisions
# ----------------------------------------------------------------------
@dataclass(slots=True, eq=False)
class Park:
    """``pid``'s request, parked from ``start`` to ``end`` on the pids of
    ``wait_for``; ``deferred_at`` is its first defer, carried across
    re-parks (its lock wait runs from there to its grant)."""

    pid: int
    request: str
    uid: int | None
    start: float
    wait_for: tuple[int, ...]
    reason: str
    shard: str | None
    deferred_at: float | None
    end: float | None = None


#: Decisions end the park of their request, a defer or cascade starts
#: the next one; the other kinds end every park of their pid.
_DECISIONS = {"lock.defer", "lock.cascade", "lock.grant", "lock.self-abort"}
_PID_ENDS = {
    "process.abort-begin", "activity.fail", "process.commit", "process.abort"
}


class ParkTracker:
    """The park rule.  A park starts at its ``lock.defer`` or
    ``lock.cascade`` and ends at the first of: the next decision on the
    same ``(pid, request, uid)``; its pid's ``process.abort-begin``,
    ``activity.fail`` (the failed node's parked siblings are abandoned),
    ``process.commit`` or ``process.abort``; a ``fault.inject`` of
    channel ``manager-crash``.  No compensation can be parked at the
    first two: compensations run only once an abort has begun.

    :meth:`observe` takes events in emit order and calls ``on_end(park,
    event)`` as each park ends; a replay feeds it the records of
    :data:`KINDS` through ``record_to_event``.
    """

    KINDS = frozenset({*_DECISIONS, *_PID_ENDS, "fault.inject"})

    def __init__(self, on_end) -> None:
        #: pid -> {(request, uid): its open park}, in park order.
        self.open: dict[int, dict[tuple, Park]] = {}
        self._on_end = on_end

    def observe(self, t: float, event) -> Park | None:
        """Apply one event; returns the park it starts, if any."""
        kind = event.kind
        if kind == "fault.inject":
            if event.channel == "manager-crash":
                for pid in list(self.open):
                    self._end_parks(pid, t, event)
            return None
        if kind not in _DECISIONS:
            self._end_parks(event.pid, t, event)
            return None
        own = self.open.setdefault(event.pid, {})
        key = (event.request, event.uid)
        prior = own.pop(key, None)
        if prior is not None:
            prior.end = t
            self._on_end(prior, event)
        if kind == "lock.defer":
            holders, reason, since = event.blockers, event.reason, t
        elif kind == "lock.cascade":
            holders, reason, since = event.victims, "awaiting-cascade", None
        else:
            if not own:
                del self.open[event.pid]
            return None
        if prior is not None and prior.deferred_at is not None:
            since = prior.deferred_at
        wait_for = tuple(holder.pid for holder in holders)
        park = own[key] = Park(
            event.pid, event.request, event.uid, t, wait_for, reason,
            event.shard, since,
        )
        return park

    def _end_parks(self, pid, t, event) -> None:
        for park in self.open.pop(pid, {}).values():
            park.end = t
            self._on_end(park, event)
