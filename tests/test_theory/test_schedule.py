"""Unit tests for process schedule objects."""

import pytest

from repro.errors import ScheduleError
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

    def test_next_point_of_no_return_finds_pivot(self):
        events = [
            ev(0, 1),
            ev(1, 2),
            ev(2, 1, name="piv", pnr=True, compensatable=False),
            ev(3, 1, kind=EventKind.COMMIT),
        ]
        schedule = ProcessSchedule(events, always_conflict)
        assert schedule.next_no_return[0].position == 2
        assert schedule.next_no_return[2].kind is EventKind.COMMIT

    def test_next_point_of_no_return_falls_back_to_commit(self):
        events = [ev(0, 1), ev(1, 1, kind=EventKind.COMMIT)]
        schedule = ProcessSchedule(events, always_conflict)
        star = schedule.next_no_return[0]
        assert star.kind is EventKind.COMMIT

    def test_next_point_of_no_return_absent_in_partial(self):
        events = [ev(0, 1), ev(1, 2)]
        schedule = ProcessSchedule(events, always_conflict)
        assert schedule.next_no_return == {}

    def test_activities_excludes_terminal_events(self):
        events = [ev(0, 1), ev(1, 1, kind=EventKind.COMMIT)]
        schedule = ProcessSchedule(events, always_conflict)
        assert len(schedule.activities) == 1

    def test_events_of(self):
        events = [ev(0, 1), ev(1, 2), ev(2, 1, kind=EventKind.COMMIT)]
        schedule = ProcessSchedule(events, always_conflict)
        assert len(schedule.events_of((1, 0))) == 2
        assert schedule.terminal_event((2, 0)) is None
