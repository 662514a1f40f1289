"""Tests for the reduction rules (RED) — the sweep and the exact search.

The hypothesis property at the bottom is the suite's centrepiece: both
deciders must agree on random small schedules, which cross-validates the
one-sweep polynomial decider against a literal implementation of
Definition 4 (the search in ``tests/test_theory/oracles.py``).
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.reduction import Reduction, poly_is_reducible
from repro.theory.schedule import (
    EventKind,
    ProcessSchedule,
    ScheduleEvent,
)
from tests.test_theory.oracles import exact_is_reducible

_uids = itertools.count(1000)


def act(pos, proc, name, compensates=None):
    return ScheduleEvent(
        position=pos,
        process=(proc, 0),
        kind=EventKind.ACTIVITY,
        name=name,
        uid=next(_uids),
        compensates=compensates,
        compensatable=True,
    )


def build(schedule_spec, conflict_pairs):
    """``schedule_spec``: list of (proc, name) or (proc, name, comp_idx)."""
    events = []
    for pos, spec in enumerate(schedule_spec):
        if len(spec) == 2:
            proc, name = spec
            events.append(act(pos, proc, name))
        else:
            proc, name, comp_idx = spec
            events.append(
                act(pos, proc, name, compensates=events[comp_idx].uid)
            )
    pairs = {frozenset(p) for p in conflict_pairs}

    def conflict(a, b):
        return frozenset((a, b)) in pairs

    return ProcessSchedule(events, conflict)


class TestSerialAndCommuting:
    def test_serial_schedule_is_reducible(self):
        schedule = build(
            [(1, "a"), (1, "b"), (2, "a"), (2, "b")],
            [("a", "a"), ("b", "b"), ("a", "b")],
        )
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)

    def test_commuting_interleaving_is_reducible(self):
        schedule = build(
            [(1, "a"), (2, "b"), (1, "a"), (2, "b")],
            [("a", "a"), ("b", "b")],  # a and b commute
        )
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)

    def test_conflicting_cycle_is_irreducible(self):
        # P1: a ... P2: a — two conflicting pairs in opposite orders.
        schedule = build(
            [(1, "a"), (2, "a"), (2, "b"), (1, "b")],
            [("a", "a"), ("b", "b")],
        )
        assert not exact_is_reducible(schedule)
        assert not poly_is_reducible(schedule)

    def test_empty_schedule_is_reducible(self):
        schedule = build([], [])
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)


class TestCompensationRule:
    def test_adjacent_pair_cancels(self):
        schedule = build(
            [(1, "a"), (1, "a", 0), (2, "a")],
            [("a", "a")],
        )
        # P1's (a, a^-1) cancels; P2's lone a survives — serial.
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)

    def test_pair_with_commuting_event_between(self):
        schedule = build(
            [(1, "a"), (2, "b"), (1, "a", 0)],
            [("a", "a"), ("b", "b")],
        )
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)

    def test_pair_with_conflicting_event_between_is_stuck(self):
        # b conflicts a and sits inside the (a, a^-1) interval; the pair
        # cannot cancel and the surviving conflicts form a cycle.
        schedule = build(
            [(1, "a"), (2, "a"), (1, "a", 0)],
            [("a", "a")],
        )
        assert not exact_is_reducible(schedule)
        assert not poly_is_reducible(schedule)

    def test_nested_pairs_cancel_inside_out(self):
        schedule = build(
            [(1, "a"), (2, "a"), (2, "a", 1), (1, "a", 0)],
            [("a", "a")],
        )
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)

    def test_reduce_schedule_reports_survivors(self):
        schedule = build(
            [(1, "a"), (1, "a", 0), (2, "b")],
            [("a", "a")],
        )
        survivors = list(Reduction.of(schedule).survivors.values())
        assert [e.name for e in survivors] == ["b"]

    def test_same_process_event_blocks_cancellation(self):
        # P1 executes b between a and a^-1; b cannot swap within its own
        # process, so the pair stays until b is itself compensated.
        schedule = build(
            [(1, "a"), (1, "b"), (1, "a", 0)],
            [("a", "a")],
        )
        survivors = list(Reduction.of(schedule).survivors.values())
        assert len(survivors) == 3  # nothing cancelled
        # Single process, so still serial/reducible:
        assert poly_is_reducible(schedule)
        assert exact_is_reducible(schedule)


class TestCrossValidationHandPicked:
    def test_interleaved_aborted_processes(self):
        # P1 aborts after P2 read past it — P2 must have been undone too
        # for reducibility; here P2 commits, so irreducible.
        schedule = build(
            [(1, "a"), (2, "a"), (1, "a", 0)],
            [("a", "a")],
        )
        assert exact_is_reducible(schedule) == poly_is_reducible(schedule)

    def test_cascading_compensations(self):
        schedule = build(
            [
                (1, "a"),
                (2, "a"),
                (2, "b"),
                (2, "b", 2),
                (2, "a", 1),
                (1, "a", 0),
            ],
            [("a", "a"), ("b", "b")],
        )
        assert exact_is_reducible(schedule)
        assert poly_is_reducible(schedule)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_property_deciders_agree(data):
    """exact (Definition 4 search) == polynomial decider, always."""
    n = data.draw(st.integers(min_value=1, max_value=7), label="length")
    names = ["a", "b", "c"]
    pair_pool = [
        ("a", "a"), ("b", "b"), ("c", "c"),
        ("a", "b"), ("a", "c"), ("b", "c"),
    ]
    conflict_pairs = data.draw(
        st.sets(st.sampled_from(pair_pool), max_size=6), label="conflicts"
    )
    spec = []
    open_regulars: list[tuple[int, int, str]] = []  # (index, proc, name)
    for pos in range(n):
        proc = data.draw(st.integers(min_value=1, max_value=3))
        mine = [r for r in open_regulars if r[1] == proc]
        compensate = mine and data.draw(st.booleans())
        if compensate:
            # Compensate the most recent uncompensated own activity
            # (reverse order, as the execution model guarantees).
            index, __, name = mine[-1]
            spec.append((proc, name, index))
            open_regulars.remove(mine[-1])
        else:
            name = data.draw(st.sampled_from(names))
            spec.append((proc, name))
            open_regulars.append((pos, proc, name))
    schedule = build(spec, conflict_pairs)
    assert exact_is_reducible(schedule) == poly_is_reducible(schedule)
