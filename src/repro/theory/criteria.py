"""Correctness criteria for process schedules (paper Definitions 4–7).

* :func:`is_reducible` — RED (Definition 4), polynomial decider.
* :func:`is_prefix_reducible` — P-RED (Definition 5): every prefix RED.
* :func:`has_correct_termination` — CT (Definition 6): the *complete*
  schedule is P-RED.  The simulator always runs workloads to quiescence,
  so completed schedules are directly available; checking a partial
  schedule for CT is a caller error.
* :func:`is_process_recoverable` — P-RC (Definition 7): no completing
  process ever depends on a running one.

All functions take a :class:`~repro.theory.schedule.ProcessSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.theory.reduction import Reduction, poly_is_reducible
from repro.theory.schedule import (
    ConflictRows,
    EventKind,
    ProcessKey,
    ProcessSchedule,
    ScheduleEvent,
)


def is_reducible(schedule: ProcessSchedule) -> bool:
    """RED: the schedule can be transformed into a serial one."""
    return poly_is_reducible(schedule)


def is_prefix_reducible(schedule: ProcessSchedule) -> bool:
    """P-RED: every prefix of the schedule is reducible (one sweep)."""
    return ScheduleMonitor.of(schedule).first_bad is None


def has_correct_termination(schedule: ProcessSchedule) -> bool:
    """CT: the completed schedule is prefix-reducible (Definition 6)."""
    if not schedule.is_complete:
        raise ScheduleError(
            "correct termination is defined over complete schedules; "
            "complete the schedule (terminate all processes) first"
        )
    return is_prefix_reducible(schedule)


@dataclass
class RecoverabilityViolation:
    """A witness that Definition 7 is violated."""

    earlier: ScheduleEvent
    later: ScheduleEvent
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"P-RC violation between {self.earlier} and {self.later}: "
            f"{self.reason}"
        )


@dataclass
class RecoverabilityReport:
    """Outcome of a P-RC check, with violation witnesses."""

    violations: list[RecoverabilityViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class ScheduleMonitor:
    """P-RED and P-RC of a growing schedule, fed one event at a time.

    The state is O(live) (``docs/theory.md``, "The deletion rule" and
    "P-RC"): a forgetting :class:`~repro.theory.reduction.Reduction`;
    the compensatable regular activities still open — neither
    compensated nor passed by their process's ``a_i*`` — which each
    later regular activity of another process is paired with, by
    conflicting type; and the rule-1 pairs still pending, settled when
    the writer reaches ``a_i*``, violated when the reader's process
    reaches ``a_j*`` first, dropped when the reader aborts.  After the
    first bad prefix the reduction is dropped: P-RED is decided.
    """

    def __init__(self, conflicts_of: ConflictRows) -> None:
        self.conflicts_of = conflicts_of
        self.reduction: Reduction | None = Reduction(conflicts_of)
        #: Length of the shortest irreducible prefix, once there is one.
        self.first_bad: int | None = None
        #: Processes seen that have not terminated.
        self.live: set[ProcessKey] = set()
        #: P-RC violations in the order they were decided.
        self.found: list[RecoverabilityViolation] = []
        self._open_by_type: dict[str, dict[int, ScheduleEvent]] = {}
        self._open_by_process: dict[ProcessKey, dict[int, ScheduleEvent]] = {}
        #: Pending pairs by reader process, keyed by ``(writer uid,
        #: reader uid)``; each writer process's as ``(reader, key)``.
        self._as_reader: dict[ProcessKey, dict[tuple, tuple]] = {}
        self._as_writer: dict[ProcessKey, list[tuple]] = {}

    @classmethod
    def of(cls, schedule: ProcessSchedule) -> "ScheduleMonitor":
        """The monitor fed the whole schedule."""
        monitor = cls(schedule.conflicts_of)
        for event in schedule.events:
            monitor.feed(event)
        return monitor

    @property
    def complete(self) -> bool:
        """Whether every process seen has terminated."""
        return not self.live

    @property
    def correct_termination(self) -> bool:
        """CT (Definition 6): the schedule is complete and P-RED."""
        return not self.live and self.first_bad is None

    @property
    def process_recoverable(self) -> bool:
        """P-RC (Definition 7) of the schedule so far."""
        return not self.found

    @property
    def violations(self) -> list[RecoverabilityViolation]:
        """The P-RC violations, by writer and then reader position."""
        return sorted(
            self.found, key=lambda v: (v.earlier.position, v.later.position)
        )

    def feed(self, event: ScheduleEvent) -> None:
        """Take the next event of the schedule."""
        process, kind = event.process, event.kind
        reduction = self.reduction
        if kind is not EventKind.ACTIVITY:
            self.live.discard(process)
            if reduction is not None:
                reduction.terminate(process)
            if kind is EventKind.COMMIT:
                self._no_return(event)
            else:  # no a_j* will come: the pairs it read are dropped
                self._open_by_process.pop(process, None)
                self._as_writer.pop(process, None)
                self._as_reader.pop(process, None)
            return
        row = self.conflicts_of.add(event.name)
        self.live.add(process)
        if (
            reduction is not None
            and reduction.append(event)
            and reduction.closes_cycle(process)
        ):
            self.first_bad = event.position + 1
            self.reduction = None
        compensates = event.compensates
        if compensates is not None:  # a_ik⁻¹ <_S a_jm: dissolved
            undone = self._open_by_process.get(process, {}).pop(
                compensates, None
            )
            if undone is not None:
                del self._open_by_type[undone.name][compensates]
        if event.point_of_no_return:
            self._no_return(event)
        if compensates is not None:
            return
        opened = self._open_by_type
        for name in row:
            if opened.get(name):
                for earlier in opened[name].values():
                    if earlier.process != process:
                        self._pair(earlier, event)
        if event.compensatable:
            opened.setdefault(event.name, {})[event.uid] = event
            self._open_by_process.setdefault(process, {})[event.uid] = event

    def _no_return(self, event: ScheduleEvent) -> None:
        """``event`` is ``a_i*`` of its process: the process's open
        activities close, the pairs it wrote are settled and the pairs
        it read are violated."""
        process = event.process
        for uid, closed in self._open_by_process.pop(process, {}).items():
            del self._open_by_type[closed.name][uid]
        for reader, key in self._as_writer.pop(process, ()):
            self._as_reader.get(reader, {}).pop(key, None)
        for pair in self._as_reader.pop(process, {}).values():
            self.found.append(
                RecoverabilityViolation(
                    *pair,
                    f"the reader's point of no return {event} precedes "
                    "the writer's",
                )
            )

    def _pair(self, earlier: ScheduleEvent, later: ScheduleEvent) -> None:
        """Definition 7 for one open pair: ``a_i*`` is not before
        ``a_jm``."""
        if later.compensatable:
            key = (earlier.uid, later.uid)
            self._as_reader.setdefault(later.process, {})[key] = earlier, later
            self._as_writer.setdefault(earlier.process, []).append(
                (later.process, key)
            )
            return
        self.found.append(
            RecoverabilityViolation(
                earlier,
                later,
                "a non-compensatable activity executed before the "
                "conflicting writer reached its point of no return",
            )
        )


def check_process_recoverability(
    schedule: ProcessSchedule,
) -> RecoverabilityReport:
    """Evaluate Definition 7 and collect all violations.

    For every cross-process conflicting pair ``a_ik^c <_S a_jm`` where
    ``a_ik`` is compensatable and neither its compensation nor its
    process's next point of no return precedes ``a_jm``:

    1. if ``a_jm`` is compensatable and ``a_j*`` has been observed, then
       ``a_i* <_S a_j*`` must hold;
    2. if ``a_jm`` is not compensatable, then ``a_i* <_S a_jm`` must hold.

    One :class:`ScheduleMonitor` sweep.
    """
    return RecoverabilityReport(ScheduleMonitor.of(schedule).violations)


def is_process_recoverable(schedule: ProcessSchedule) -> bool:
    """P-RC: Definition 7 holds (boolean form).

    This also decides P-RC for every prefix.  A violation is settled by
    the events up to its reader (rule 2) or up to ``a_j*`` (rule 1),
    and later events cannot change those, so a violation of a prefix
    is a violation of the whole schedule.
    """
    return check_process_recoverability(schedule).ok
