"""Observed-schedule recording.

The :class:`TraceRecorder` turns the simulation's committed activities and
process terminations into the theory layer's
:class:`~repro.theory.schedule.ProcessSchedule`, which the correctness
oracles (P-RED / CT / P-RC) consume.

Every event recorded is fed to the recorder's
:class:`~repro.theory.criteria.ScheduleMonitor`, so the P-RED / CT /
P-RC verdict of the schedule so far is carried (:attr:`verdict`), not
recomputed.  A recorder keeps the whole schedule in memory unless a
durable store takes it over: :meth:`TraceRecorder.forget` drops the
prefix a snapshot made durable, which nothing reads back.  Positions
keep counting past it.
"""

from __future__ import annotations

from repro.activities.activity import Activity
from repro.errors import ScheduleError
from repro.process.instance import Process
from repro.theory.criteria import ScheduleMonitor
from repro.theory.schedule import (
    ConflictFn,
    ConflictRows,
    EventKind,
    ProcessSchedule,
    ScheduleEvent,
)


class TraceRecorder:
    """Collects schedule events in observed (virtual-time) order.

    ``conflict`` is the type-level conflict relation the verdict is
    decided under.  Pass ``events`` to continue an earlier trace —
    crash recovery seeds the new manager's recorder with the pre-crash
    schedule, and feeds it to the verdict again, so the combined
    history is checked end to end.  ``base`` is the position of
    ``events[0]``: a recorder recovered from a store starts past the
    prefix the store holds, which the
    :class:`~repro.storage.plane.PersistencePlane` feeds to
    :attr:`verdict` once, at open.
    """

    def __init__(
        self,
        conflict: ConflictFn,
        events: list[ScheduleEvent] | None = None,
        base: int = 0,
    ) -> None:
        #: The events at positions ``base, base + 1, ...``: the whole
        #: trace, or what was recorded since the last snapshot.
        self.events: list[ScheduleEvent] = list(events or [])
        self.base = base
        self.verdict = ScheduleMonitor(ConflictRows(conflict))
        for event in self.events:
            self.verdict.feed(event)

    def _record(self, process: Process, kind: EventKind, **fields) -> None:
        event = ScheduleEvent(
            self.base + len(self.events), process.key, kind, **fields
        )
        self.events.append(event)
        self.verdict.feed(event)

    def record_activity(self, process: Process, activity: Activity) -> None:
        """Record a committed (regular or compensating) activity."""
        activity_type = activity.activity_type
        self._record(
            process,
            EventKind.ACTIVITY,
            name=activity.name,
            uid=activity.uid,
            compensates=activity.compensates,
            compensatable=activity_type.compensatable,
            point_of_no_return=activity_type.point_of_no_return,
        )

    def record_commit(self, process: Process) -> None:
        """Record ``C_i``."""
        self._record(process, EventKind.COMMIT)

    def record_abort(self, process: Process) -> None:
        """Record ``A_i`` (after the abort-process execution finished)."""
        self._record(process, EventKind.ABORT)

    def forget(self, count: int) -> None:
        """Drop the events before position ``count``: a store holds them."""
        del self.events[: count - self.base]
        self.base = count

    def to_schedule(self, conflict: ConflictFn) -> ProcessSchedule:
        """Wrap the recorded events as a checkable process schedule
        (only while the recorder holds the whole trace)."""
        if self.base:  # read the prefix through ``Store.trace``
            raise ScheduleError(f"{self.base} events are in the store")
        return ProcessSchedule(self.events, conflict)

    def __len__(self) -> int:
        return self.base + len(self.events)
