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
from repro.theory.explain import first_bad_prefix
from repro.theory.reduction import poly_is_reducible
from repro.theory.schedule import (
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
    return first_bad_prefix(schedule) is None


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

    One forward sweep keeps the compensatable regular activities still
    *open* — neither compensated nor passed by their process's next
    point of no return or commit — grouped by type, and pairs each later
    regular activity with the open ones of conflicting types only.
    Compensations are protocol-generated; their ordering constraints
    are captured by the C⁻¹-Rule and checked via reducibility, so they
    are never the later activity of a pair.
    """
    report = RecoverabilityReport()
    conflicts_of = schedule.conflicts_of
    star = schedule.next_no_return
    opened: dict[int, ScheduleEvent] = {}
    open_by_type: dict[str, dict[int, ScheduleEvent]] = {}
    open_by_process: dict[ProcessKey, list[int]] = {}

    def close(uid: int | None) -> None:
        event = opened.pop(uid, None)
        if event is not None:
            del open_by_type[event.name][uid]

    for later in schedule.events:
        if later.is_compensation:
            close(later.compensates)  # a_ik⁻¹ <_S a_jm: dissolved
        elif later.is_activity:
            for name in conflicts_of[later.name]:
                for earlier in open_by_type.get(name, {}).values():
                    if earlier.process != later.process:
                        _check_pair(report, earlier, later, star)
        if later.kind is EventKind.COMMIT or later.point_of_no_return:
            for uid in open_by_process.pop(later.process, ()):
                close(uid)  # a_i* <_S a_jm: P_i committed past a_ik
        if later.is_regular and later.compensatable:
            opened[later.uid] = later
            open_by_type.setdefault(later.name, {})[later.uid] = later
            open_by_process.setdefault(later.process, []).append(later.uid)
    report.violations.sort(
        key=lambda v: (v.earlier.position, v.later.position)
    )
    return report


def _check_pair(
    report: RecoverabilityReport,
    earlier: ScheduleEvent,
    later: ScheduleEvent,
    star: dict[int, ScheduleEvent],
) -> None:
    """Definition 7 for one open pair: ``a_i*`` is not before ``a_jm``."""
    i_star = star.get(earlier.position)
    if later.compensatable:
        j_star = star.get(later.position)
        if j_star is None:
            return  # a_j* not in S: no constraint yet
        if i_star is None or i_star.position >= j_star.position:
            report.violations.append(
                RecoverabilityViolation(
                    earlier,
                    later,
                    "the reader's point of no return "
                    f"{j_star} precedes the writer's "
                    f"({i_star})",
                )
            )
    else:
        report.violations.append(
            RecoverabilityViolation(
                earlier,
                later,
                "a non-compensatable activity executed before "
                "the conflicting writer reached its point of "
                "no return",
            )
        )


def is_process_recoverable(schedule: ProcessSchedule) -> bool:
    """P-RC: Definition 7 holds (boolean form).

    This also decides P-RC for every prefix.  A violation is settled by
    the events up to its reader (rule 2) or up to ``a_j*`` (rule 1),
    and later events cannot change those, so a violation of a prefix
    is a violation of the whole schedule.
    """
    return check_process_recoverability(schedule).ok
