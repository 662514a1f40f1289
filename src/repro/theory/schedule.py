"""Process schedules (paper Definition 3).

A :class:`ProcessSchedule` records the observed execution order ``<_S`` of
activities as a totally ordered event list (the simulator commits at most
one activity per virtual instant, so the observed partial order is a total
order — the common case for dynamic schedulers).  Besides regular and
compensating activities the event list contains the termination events
``C_i`` / ``A_i`` of each process, which Definition 7 (P-RC) refers to.

Process identity is ``(pid, incarnation)``: a resubmitted process is
formally a new process that shares the original's timestamp.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ScheduleError

ProcessKey = tuple[int, int]
ConflictFn = Callable[[str, str], bool]


class EventKind(enum.Enum):
    """Kinds of entries in the observed schedule."""

    ACTIVITY = "activity"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True, slots=True)
class ScheduleEvent:
    """One entry of the observed execution order ``<_S``.

    Parameters
    ----------
    position:
        Index in the total observed order.
    process:
        ``(pid, incarnation)`` of the owning process.
    kind:
        Activity, process commit (``C_i``) or process abort (``A_i``).
    name:
        Activity type name (empty for terminal events).
    uid:
        Globally unique activity invocation id (0 for terminal events).
    compensates:
        For compensating activities, the uid of the regular activity
        undone; ``None`` otherwise.
    compensatable:
        Whether the activity type has a compensating counterpart.
    point_of_no_return:
        Whether committing this activity forecloses compensation (pivot or
        retriable non-compensatable activity).
    """

    position: int
    process: ProcessKey
    kind: EventKind
    name: str = ""
    uid: int = 0
    compensates: int | None = None
    compensatable: bool = False
    point_of_no_return: bool = False

    @property
    def is_activity(self) -> bool:
        return self.kind is EventKind.ACTIVITY

    @property
    def is_compensation(self) -> bool:
        return self.compensates is not None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pid, inc = self.process
        owner = f"P{pid}" if inc == 0 else f"P{pid}.{inc}"
        if self.kind is EventKind.COMMIT:
            return f"C({owner})"
        if self.kind is EventKind.ABORT:
            return f"A({owner})"
        return f"{self.name}({owner})"


class ProcessSchedule:
    """The observed schedule ``S = (P_S, A_S, ≺_S, <_S)``.

    Parameters
    ----------
    events:
        Events in observed order; positions must be 0..n-1 and increasing.
    conflict:
        Type-level conflict test ``CON`` (symmetric, perfect commutativity
        assumed).
    """

    def __init__(
        self, events: Sequence[ScheduleEvent], conflict: ConflictFn
    ) -> None:
        self.events = list(events)
        self.conflict = conflict
        for index, event in enumerate(self.events):
            if event.position != index:
                raise ScheduleError(
                    f"event {event} has position {event.position}, "
                    f"expected {index}"
                )
        self._terminal: dict[ProcessKey, ScheduleEvent] = {}
        for event in self.events:
            if event.kind is not EventKind.ACTIVITY:
                if event.process in self._terminal:
                    raise ScheduleError(
                        f"process {event.process} terminates twice"
                    )
                self._terminal[event.process] = event

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def activities(self) -> list[ScheduleEvent]:
        """Only the activity events, in observed order."""
        return [e for e in self.events if e.is_activity]

    @property
    def processes(self) -> list[ProcessKey]:
        """All processes appearing in the schedule (stable order)."""
        seen: dict[ProcessKey, None] = {}
        for event in self.events:
            seen.setdefault(event.process, None)
        return list(seen)

    @property
    def is_complete(self) -> bool:
        """Whether every process has terminated (Definition 3)."""
        return all(p in self._terminal for p in self.processes)

    def prefix(self, length: int) -> "ProcessSchedule":
        """The prefix of the first ``length`` events, re-wrapped."""
        return ProcessSchedule(self.events[:length], self.conflict)

    # ------------------------------------------------------------------
    # compiled views (each built once, on first use)
    # ------------------------------------------------------------------
    @cached_property
    def conflicts_of(self) -> "ConflictRows":
        """Per activity name, the names that conflict with it.

        ``a in conflicts_of[b]`` iff ``conflict(a, b)``.  Built with
        k² calls of ``conflict`` for the k distinct names in the
        schedule and never consulted again: the deciders walk these
        rows instead of testing activity pairs.
        """
        rows = ConflictRows(self.conflict)
        for event in self.events:
            if event.is_activity:
                rows.add(event.name)
        return rows

    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " ".join(str(e) for e in self.events)


class ConflictRows(dict):
    """Per name seen so far, the seen names that conflict with it
    (``a in rows[b]`` iff ``conflict(a, b)``), grown by :meth:`add`:
    each ordered pair of names costs one ``conflict`` call, k² in all.
    """

    def __init__(self, conflict: ConflictFn) -> None:
        super().__init__()
        self.conflict = conflict

    def add(self, name: str) -> set[str]:
        """The row of ``name``, made (and entered in others') if new."""
        row = self.get(name)
        if row is None:
            conflict = self.conflict
            row = {name} if conflict(name, name) else set()
            for other, other_row in self.items():
                if conflict(other, name):
                    row.add(other)
                if conflict(name, other):
                    other_row.add(name)
            self[name] = row
        return row
