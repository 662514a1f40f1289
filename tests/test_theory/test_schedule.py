"""Unit tests for process schedule objects."""

import pytest

from repro.errors import ScheduleError
from repro.theory.criteria import (
    ScheduleMonitor,
    check_process_recoverability,
)
from repro.theory.reduction import Reduction
from repro.theory.schedule import (
    EventKind,
    ProcessSchedule,
    ScheduleEvent,
)


def ev(pos, proc, kind=EventKind.ACTIVITY, name="a", uid=None,
       compensates=None, compensatable=True, pnr=False):
    return ScheduleEvent(
        position=pos,
        process=(proc, 0),
        kind=kind,
        name=name if kind is EventKind.ACTIVITY else "",
        uid=uid if uid is not None else pos + 1,
        compensates=compensates,
        compensatable=compensatable,
        point_of_no_return=pnr,
    )


def always_conflict(a, b):
    return True


def same_name(a, b):
    return a == b


class TestConstruction:
    def test_positions_must_match_indices(self):
        with pytest.raises(ScheduleError):
            ProcessSchedule([ev(1, 1)], always_conflict)

    def test_double_termination_rejected(self):
        events = [
            ev(0, 1, kind=EventKind.COMMIT),
            ev(1, 1, kind=EventKind.ABORT),
        ]
        with pytest.raises(ScheduleError):
            ProcessSchedule(events, always_conflict)

    def test_processes_in_first_appearance_order(self):
        events = [ev(0, 2), ev(1, 1), ev(2, 2)]
        schedule = ProcessSchedule(events, always_conflict)
        assert schedule.processes == [(2, 0), (1, 0)]

    def test_completeness(self):
        partial = ProcessSchedule([ev(0, 1)], always_conflict)
        assert not partial.is_complete
        complete = ProcessSchedule(
            [ev(0, 1), ev(1, 1, kind=EventKind.COMMIT)], always_conflict
        )
        assert complete.is_complete

    def test_prefix(self):
        events = [ev(0, 1), ev(1, 2), ev(2, 1, kind=EventKind.COMMIT)]
        schedule = ProcessSchedule(events, always_conflict)
        prefix = schedule.prefix(2)
        assert len(prefix) == 2
        assert not prefix.is_complete


class TestQueries:
    def test_conflicting_pairs_are_cross_process_only(self):
        events = [ev(0, 1), ev(1, 1), ev(2, 2)]
        schedule = ProcessSchedule(events, always_conflict)
        # (e0,e2) and (e1,e2), both P1 -> P2; (e0,e1) is same-process.
        assert Reduction.of(schedule).out == {(1, 0): {(2, 0): 2}}

    def test_conflict_respects_matrix(self):
        events = [ev(0, 1, name="x"), ev(1, 2, name="y")]
        calls = []

        def conflict(a, b):
            calls.append((a, b))
            return {a, b} == {"x", "x"}

        schedule = ProcessSchedule(events, conflict)
        assert schedule.conflicts_of == {
            "x": frozenset({"x"}),
            "y": frozenset(),
        }
        assert "x" not in schedule.conflicts_of["y"]
        assert len(calls) == 4  # built once: k² calls for k names

    # ``a_i*`` (the next point of no return or commit of a writer's
    # process) is carried by the monitor: a rule-1 pair stays pending
    # until one side reaches its own.
    def test_next_point_of_no_return_finds_pivot(self):
        def schedule(pivot_is_no_return):
            return ProcessSchedule(
                [
                    ev(0, 1),
                    ev(1, 2),
                    ev(2, 1, name="piv", pnr=pivot_is_no_return,
                       compensatable=False),
                    ev(3, 2, kind=EventKind.COMMIT),
                    ev(4, 1, kind=EventKind.COMMIT),
                ],
                same_name,
            )

        assert check_process_recoverability(schedule(True)).ok
        (late,) = check_process_recoverability(schedule(False)).violations
        assert (late.earlier.position, late.later.position) == (0, 1)

    def test_next_point_of_no_return_falls_back_to_commit(self):
        def schedule(writer_first):
            first, second = (1, 2) if writer_first else (2, 1)
            return ProcessSchedule(
                [
                    ev(0, 1),
                    ev(1, 2),
                    ev(2, first, kind=EventKind.COMMIT),
                    ev(3, second, kind=EventKind.COMMIT),
                ],
                same_name,
            )

        assert check_process_recoverability(schedule(True)).ok
        (late,) = check_process_recoverability(schedule(False)).violations
        assert "C(P2)" in late.reason

    def test_next_point_of_no_return_absent_in_partial(self):
        monitor = ScheduleMonitor.of(
            ProcessSchedule([ev(0, 1), ev(1, 2)], same_name)
        )
        assert monitor.process_recoverable and not monitor.complete
        monitor.feed(ev(2, 2, kind=EventKind.COMMIT))
        assert not monitor.process_recoverable

    def test_activities_excludes_terminal_events(self):
        events = [ev(0, 1), ev(1, 1, kind=EventKind.COMMIT)]
        schedule = ProcessSchedule(events, always_conflict)
        assert len(schedule.activities) == 1

    def test_events_of(self):
        events = [ev(0, 1), ev(1, 2), ev(2, 1, kind=EventKind.COMMIT)]
        schedule = ProcessSchedule(events, always_conflict)
        assert [e for e in schedule.events if e.process == (1, 0)] == [
            events[0], events[2]
        ]
        assert all(
            e.kind is EventKind.ACTIVITY
            for e in schedule.events
            if e.process == (2, 0)
        )
