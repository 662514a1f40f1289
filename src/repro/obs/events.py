"""Typed trace events emitted by the instrumented simulation layers.

Every event is a plain dataclass carrying *why* something happened, not
just that it did: defers name the blocking holders (pid, timestamp, held
lock modes) and the paper rule that fired; cascades name the victims and
the timestamp comparison that doomed them; grants carry the sharing
position the lock was appended at.

Events are built on every emit, so they are plain (not frozen) slotted
dataclasses: a frozen one pays an ``object.__setattr__`` call per field
at construction.  Nothing mutates an event once emitted.

Events do **not** carry their own clock — the
:class:`~repro.obs.tracer.Tracer` stamps each emit with the virtual time
and a global sequence number, and serializes the pair together with the
payload (see :meth:`~repro.obs.tracer.Stamped.to_record`).  The flat
record dictionaries are what the JSONL log, the exporters, and the
explain replay consume.
"""

from __future__ import annotations

import copy
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


@dataclass(slots=True)
class SelfAbortDecision:
    """The protocol told the *requester* to abort (baselines only)."""

    kind = "lock.self-abort"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
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
# wait-for bookkeeping and deadlock resolution
# ----------------------------------------------------------------------
@dataclass(slots=True)
class WaitEdge:
    """Insertion or deletion of parked wait-for edges.

    One event covers the whole edge fan (waiter → each blocker) of one
    parked request; ``park`` is the manager's park sequence, which pairs
    the delete with its insert for blocked-time accounting.
    """

    kind = "wait.edge"
    op: str  # "insert" | "delete"
    waiter: int
    blockers: tuple[int, ...]
    park: int
    request: str
    activity: str | None
    reason: str
    #: Lock shard (subsystem) of the requested activity's type; ``None``
    #: for commit requests, which span all of the process's shards.
    shard: str | None = None


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
    #: "failure", "retry", "latency", "outage", "subsystem-crash",
    #: "manager-crash", or "manager-recover".
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
        WaitEdge,
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


def _holders(holders) -> tuple[dict, ...]:
    return tuple(
        {"pid": h.pid, "timestamp": h.timestamp, "modes": h.modes}
        for h in holders
    )


#: Keys :func:`flat_record` stamps on every record.
STAMP_KEYS = ("seq", "t", "kind")


def _field_plan(cls) -> tuple:
    """``(name, convert)`` per field; ``convert`` is ``None`` where the
    value goes into the payload as it is.

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
        if spec.type in _SHARED_ANNOTATIONS:
            convert = None
        elif spec.type == "tuple[Holder, ...]":
            convert = _holders
        else:  # a mutable value (``FaultInjected.detail``)
            convert = copy.deepcopy
        plan.append((spec.name, convert))
    return tuple(plan)


_FIELD_PLANS: dict[type, tuple] = {
    cls: _field_plan(cls) for cls in EVENT_TYPES.values()
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
        for name, convert in _FIELD_PLANS[type(event)]
    }


def flat_record(seq: int, t: float, event) -> dict:
    """The ``{seq, t, kind, **payload}`` record of one stamped event.

    The one spelling of what a JSONL line, a flight-ring dump and a bus
    frame carry; key order is part of the journal's byte format.
    """
    record = {"seq": seq, "t": t, "kind": event.kind}
    record.update(event_payload(event))
    return record
