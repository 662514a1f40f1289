"""Tests for P-RED, CT, and P-RC (Definitions 5–7)."""

import itertools

import pytest

from repro.errors import ScheduleError
from repro.theory.criteria import (
    check_process_recoverability,
    has_correct_termination,
    is_prefix_reducible,
    is_process_recoverable,
    is_reducible,
)
from repro.theory.schedule import (
    EventKind,
    ProcessSchedule,
    ScheduleEvent,
)

_uids = itertools.count(5000)


def act(pos, proc, name, compensatable=True, pnr=False, compensates=None):
    return ScheduleEvent(
        position=pos,
        process=(proc, 0),
        kind=EventKind.ACTIVITY,
        name=name,
        uid=next(_uids),
        compensates=compensates,
        compensatable=compensatable,
        point_of_no_return=pnr,
    )


def term(pos, proc, kind=EventKind.COMMIT):
    return ScheduleEvent(position=pos, process=(proc, 0), kind=kind)


def conflict_all(a, b):
    return True


class TestPrefixReducibility:
    def test_every_prefix_checked(self):
        # Full schedule reduces (pair cancels) but the 3-event prefix
        # a1 a2 a1^-1 is irreducible — P-RED must fail.
        first = act(0, 1, "a")
        events = [
            first,
            act(1, 2, "a"),
            act(2, 2, "a", compensates=None),
        ]
        # build: a(P1) a(P2) a^-1(P2) a^-1(P1)
        second = events[1]
        events[2] = act(2, 2, "a", compensates=second.uid)
        events.append(act(3, 1, "a", compensates=first.uid))
        schedule = ProcessSchedule(events, conflict_all)
        assert is_reducible(schedule)
        assert is_prefix_reducible(schedule)  # nested pairs: all good

    def test_irreducible_prefix_detected(self):
        first = act(0, 1, "a")
        second = act(1, 2, "a")
        comp_first = act(2, 1, "a", compensates=first.uid)
        comp_second = act(3, 2, "a", compensates=second.uid)
        # a(P1) a(P2) a^-1(P1) a^-1(P2): P1's pair has P2's conflicting
        # activity inside -> prefix of length 3 (and the whole) stuck.
        schedule = ProcessSchedule(
            [first, second, comp_first, comp_second], conflict_all
        )
        assert not is_prefix_reducible(schedule)


class TestCorrectTermination:
    def test_requires_complete_schedule(self):
        schedule = ProcessSchedule([act(0, 1, "a")], conflict_all)
        with pytest.raises(ScheduleError):
            has_correct_termination(schedule)

    def test_committed_serial_history(self):
        events = [
            act(0, 1, "a"),
            term(1, 1),
            act(2, 2, "a"),
            term(3, 2),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert has_correct_termination(schedule)

    def test_aborted_process_with_clean_undo(self):
        first = act(0, 1, "a")
        events = [
            first,
            act(1, 1, "a", compensates=first.uid),
            term(2, 1, EventKind.ABORT),
            act(3, 2, "a"),
            term(4, 2),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert has_correct_termination(schedule)

    def test_dirty_read_of_aborted_work_fails(self):
        first = act(0, 1, "a")
        events = [
            first,
            act(1, 2, "a"),             # P2 reads past P1's update
            act(2, 1, "a", compensates=first.uid),
            term(3, 1, EventKind.ABORT),
            term(4, 2),                  # P2 commits anyway
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert not has_correct_termination(schedule)


class TestProcessRecoverability:
    def test_clean_commit_order_is_recoverable(self):
        events = [
            act(0, 1, "a"),
            act(1, 2, "a"),
            term(2, 1),
            term(3, 2),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert is_process_recoverable(schedule)

    def test_reversed_commit_order_violates(self):
        """Definition 7.1: C_j before C_i while sharing a_ik^c < a_jm."""
        events = [
            act(0, 1, "a"),
            act(1, 2, "a"),
            term(2, 2),  # the dependent process commits first
            term(3, 1),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        report = check_process_recoverability(schedule)
        assert not report.ok
        assert len(report.violations) == 1

    def test_pivot_counts_as_point_of_no_return(self):
        """Definition 7.2: a pivot behind an uncommitted writer."""
        events = [
            act(0, 1, "a"),
            act(1, 2, "piv", compensatable=False, pnr=True),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert not is_process_recoverable(schedule)

    def test_pivot_after_writer_commit_is_fine(self):
        events = [
            act(0, 1, "a"),
            term(1, 1),
            act(2, 2, "piv", compensatable=False, pnr=True),
            term(3, 2),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert is_process_recoverable(schedule)

    def test_compensated_dependency_is_discharged(self):
        """If a_ik^-1 precedes a_jm the pair imposes no constraint."""
        first = act(0, 1, "a")
        events = [
            first,
            act(1, 1, "a", compensates=first.uid),
            term(2, 1, EventKind.ABORT),
            act(3, 2, "piv", compensatable=False, pnr=True),
            term(4, 2),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert is_process_recoverable(schedule)

    def test_writer_pivot_before_reader_discharges(self):
        """a_i* < a_jm: P_i passed its point of no return first."""
        events = [
            act(0, 1, "a"),
            act(1, 1, "p1", compensatable=False, pnr=True),
            act(2, 2, "piv", compensatable=False, pnr=True),
            term(3, 1),
            term(4, 2),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert is_process_recoverable(schedule)

    def test_running_reader_imposes_no_constraint_yet(self):
        """Rule 1 guard: no constraint while a_j* is not in S."""
        events = [
            act(0, 1, "a"),
            act(1, 2, "a"),
        ]
        schedule = ProcessSchedule(events, conflict_all)
        assert is_process_recoverable(schedule)

    def test_prefix_violation_persists(self):
        # The 3-event prefix has the reader's pivot before the writer's
        # point of no return; the writer's later commit cannot move the
        # pivot, so the whole schedule is flagged as well.
        events = [
            act(0, 1, "a"),
            act(1, 2, "a"),
            act(2, 2, "piv", compensatable=False, pnr=True),
            term(3, 2),
            term(4, 1),
        ]
        assert not is_process_recoverable(
            ProcessSchedule(events[:3], conflict_all)
        )
        assert not is_process_recoverable(
            ProcessSchedule(events, conflict_all)
        )

    def test_non_conflicting_activities_ignored(self):
        events = [
            act(0, 1, "a"),
            act(1, 2, "b"),
            term(2, 2),
            term(3, 1),
        ]
        schedule = ProcessSchedule(events, lambda a, b: a == b)
        assert is_process_recoverable(schedule)
