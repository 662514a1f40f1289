"""Bookkeeping records used by the process manager.

These dataclasses describe work that is *parked* (deferred lock requests,
pending commits, compensation steps awaiting locks) and work that is *in
flight* (activities whose completion event is scheduled).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.activities.activity import Activity
from repro.core.locks import LockMode
from repro.process.instance import LedgerEntry, Process
from repro.process.program import ProcessProgram

#: The terminal outcomes of a pid; exactly one is ever recorded.
OUTCOMES = ("committed", "aborted", "cancelled", "starved")


class RequestKind(enum.Enum):
    """What a parked request is waiting to do."""

    REGULAR = "regular"
    COMPENSATION = "compensation"
    COMMIT = "commit"


@dataclass(slots=True)
class ParkedRequest:
    """A lock/commit request waiting for other processes to terminate.

    ``seq`` is the manager-assigned park order (re-assigned every time
    the request is re-parked); the wake-up scheduler retries eligible
    requests in ``seq`` order, which reproduces the historical
    scan-the-parked-list-in-order semantics exactly.
    """

    kind: RequestKind
    process: Process
    activity: Activity | None = None
    mode: LockMode | None = None
    wait_for: frozenset[int] = frozenset()
    reason: str = ""
    seq: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        what = (
            self.kind.value
            if self.activity is None
            else f"{self.kind.value}:{self.activity.name}"
        )
        return (
            f"parked[{what}] P{self.process.pid} waits "
            f"{sorted(self.wait_for)} ({self.reason})"
        )


@dataclass(slots=True)
class InflightActivity:
    """A lock-granted activity that is executing or gated.

    Ordered sharing orders conflicting activities by lock position; the
    underlying subsystem's own concurrency control would block a later
    conflicting transaction until the earlier one commits.  The manager
    models this with ``gate``: the set of activity uids (with smaller lock
    positions, conflicting types) that must complete before this activity
    starts executing.
    """

    process: Process
    activity: Activity
    kind: RequestKind
    started_at: float
    entry: object = None  # LockEntry of the granted lock
    gate: set[int] = field(default_factory=set)
    started: bool = False
    cancelled: bool = False
    #: Execution attempts so far (1-based; transient retries bump it).
    attempts: int = 1
    #: ``1 << dense type id`` of the activity's type when ``entry`` is
    #: set, else 0 — gating tests conflict membership with one AND
    #: instead of a name lookup per inflight pair (the plane is
    #: compiled once, so a bit never changes meaning).
    type_bit: int = 0


@dataclass(slots=True)
class CompensationRun:
    """A sequence of compensations being executed for one process.

    ``queue`` holds the remaining ledger entries in reverse execution
    order; ``then`` names what follows the last compensation:
    ``"next-branch"`` (the pivot's next alternative), ``"resubmit"``
    (a cascade victim restarts), or the outcome the abort ends in.
    """

    process: Process
    queue: list[LedgerEntry]
    then: str
    label: str = ""


@dataclass(slots=True)
class ScheduledStart:
    """A start waiting for a pid: its initiation (``pending``, no
    ``process`` yet) or the restart of a cascade victim's successor
    (``awaiting-resubmit``).  ``handle.time`` is when the engine fires
    it — or fired it, for a successor the manager's restart gate has
    held since and will start itself."""

    program: ProcessProgram
    handle: object
    process: Process | None = None


@dataclass(slots=True)
class ProcessRecord:
    """What a pid's client reads and its recovery replays, across
    incarnations: when it was submitted and committed, how often it was
    resubmitted (the starvation bound), what was compensated and why,
    and its outcome.  Everything else about a pid is counted once, by
    the event fold (:class:`~repro.obs.metrics.EventMetrics`)."""

    pid: int
    submitted_at: float
    committed_at: float | None = None
    resubmissions: int = 0
    #: Activity-type names whose effects had to be compensated.  Both
    #: compensation lists are the shared empty tuple until the first
    #: compensation (:meth:`note_compensation`), which most processes
    #: never reach.  A pid's compensation count is their length, and
    #: its undone cost the sum of the named types' costs.
    compensated_names: list[str] | tuple[()] = ()
    #: Cause of each compensation, aligned with ``compensated_names``:
    #: its run's label ("protocol-abort:<cause>", "intrinsic-abort" or
    #: "subprocess-abort").
    compensated_causes: list[str] | tuple[()] = ()
    #: One of :data:`OUTCOMES`, written once, by the manager; ``None``
    #: while undecided — "terminal" *means* ``outcome is not None``.
    outcome: str | None = None

    def note_compensation(self, name: str, cause: str) -> None:
        """Add one compensation; the first allocates the two lists."""
        if not self.compensated_names:
            self.compensated_names, self.compensated_causes = [], []
        self.compensated_names.append(name)
        self.compensated_causes.append(cause)

    @property
    def latency(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


def by_outcome(records: dict[int, ProcessRecord]) -> dict:
    """Pids grouped by recorded outcome (``None`` = undecided)."""
    groups: dict[str | None, list[int]] = {}
    for pid in sorted(records):
        groups.setdefault(records[pid].outcome, []).append(pid)
    return groups


def conserved(records, stats=None, undecided=()) -> bool:
    """The conservation oracle: every submitted pid has exactly one
    outcome or is one the manager still enumerates as ``undecided`` —
    at quiescence ``submitted == committed + aborted + cancelled +
    starved``.  ``stats`` (covering the whole logical run) is
    cross-checked when given."""
    groups = by_outcome(records)
    if groups.pop(None, []) != sorted(undecided):
        return False
    counted = [len(groups.get(name, ())) for name in ("committed", "starved")]
    return set(groups) <= set(OUTCOMES) and (
        stats is None
        or [stats.submitted, stats.committed, stats.starved]
        == [len(records), *counted]
    )
