"""Observed-schedule recording.

The :class:`TraceRecorder` turns the simulation's committed activities and
process terminations into the theory layer's
:class:`~repro.theory.schedule.ProcessSchedule`, which the correctness
oracles (P-RED / CT / P-RC) consume.

A recorder keeps the whole schedule in memory unless a durable store
takes it over: :meth:`TraceRecorder.forget` drops the prefix a snapshot
made durable, and from then on :meth:`TraceRecorder.whole` reads that
prefix back through the store.  Positions keep counting past it.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.activities.activity import Activity
from repro.process.instance import Process
from repro.theory.schedule import (
    ConflictFn,
    EventKind,
    ProcessSchedule,
    ScheduleEvent,
)

#: ``stored(count)``: the first ``count`` events of the schedule, read
#: back from where they were made durable.
StoredPrefix = Callable[[int], list[ScheduleEvent]]


class TraceRecorder:
    """Collects schedule events in observed (virtual-time) order.

    Pass ``events`` to continue an earlier trace — crash recovery seeds
    the new manager's recorder with the pre-crash schedule so the
    combined history can be checked end to end.  ``base`` is the
    position of ``events[0]``: a recorder recovered from a store starts
    past the prefix the store holds, and ``stored`` reads that prefix
    back.
    """

    def __init__(
        self,
        events: list[ScheduleEvent] | None = None,
        base: int = 0,
        stored: StoredPrefix | None = None,
    ) -> None:
        #: The events at positions ``base, base + 1, ...``: the whole
        #: trace, or what was recorded since the last snapshot.
        self.events: list[ScheduleEvent] = list(events or [])
        self.base = base
        self.stored = stored

    def record_activity(self, process: Process, activity: Activity) -> None:
        """Record a committed (regular or compensating) activity."""
        activity_type = activity.activity_type
        self.events.append(
            ScheduleEvent(
                position=self.base + len(self.events),
                process=process.key,
                kind=EventKind.ACTIVITY,
                name=activity.name,
                uid=activity.uid,
                compensates=activity.compensates,
                compensatable=activity_type.compensatable,
                point_of_no_return=activity_type.point_of_no_return,
            )
        )

    def record_commit(self, process: Process) -> None:
        """Record ``C_i``."""
        self.events.append(
            ScheduleEvent(
                position=self.base + len(self.events),
                process=process.key,
                kind=EventKind.COMMIT,
            )
        )

    def record_abort(self, process: Process) -> None:
        """Record ``A_i`` (after the abort-process execution finished)."""
        self.events.append(
            ScheduleEvent(
                position=self.base + len(self.events),
                process=process.key,
                kind=EventKind.ABORT,
            )
        )

    def forget(self, count: int, stored: StoredPrefix) -> None:
        """Drop the events before position ``count``, which ``stored``
        reads back from now on."""
        del self.events[: count - self.base]
        self.base = count
        self.stored = stored

    def whole(self) -> list[ScheduleEvent]:
        """Every event recorded, the stored prefix included."""
        if not self.base:
            return list(self.events)
        return self.stored(self.base) + self.events

    def to_schedule(self, conflict: ConflictFn) -> ProcessSchedule:
        """Wrap the recorded events as a checkable process schedule."""
        return ProcessSchedule(self.whole(), conflict)

    def __len__(self) -> int:
        return self.base + len(self.events)
