"""Unit tests for the oracles' all-pairs serialization graph."""

import itertools

from repro.theory.schedule import EventKind, ScheduleEvent
from tests.test_theory.oracles import (
    is_conflict_serializable,
    serialization_graph,
    serialization_order,
)

_uids = itertools.count(12000)


def act(pos, proc, name):
    return ScheduleEvent(
        position=pos,
        process=(proc, 0),
        kind=EventKind.ACTIVITY,
        name=name,
        uid=next(_uids),
        compensatable=True,
    )


def same_name(a, b):
    return a == b


def edges(graph):
    return [(tail, head) for tail, heads in graph.items() for head in heads]


class TestSerializationGraph:
    def test_edge_orientation_follows_observed_order(self):
        events = [act(0, 1, "x"), act(1, 2, "x")]
        graph = serialization_graph(events, same_name)
        assert edges(graph) == [((1, 0), (2, 0))]

    def test_commuting_events_add_no_edge(self):
        events = [act(0, 1, "x"), act(1, 2, "y")]
        graph = serialization_graph(events, same_name)
        assert edges(graph) == []
        assert set(graph) == {(1, 0), (2, 0)}

    def test_same_process_never_edges(self):
        events = [act(0, 1, "x"), act(1, 1, "x")]
        graph = serialization_graph(events, same_name)
        assert edges(graph) == []

    def test_cycle_detection(self):
        events = [
            act(0, 1, "x"), act(1, 2, "x"),
            act(2, 2, "y"), act(3, 1, "y"),
        ]
        assert not is_conflict_serializable(events, same_name)

    def test_serialization_order_witness(self):
        events = [act(0, 2, "x"), act(1, 1, "x")]
        order = serialization_order(events, same_name)
        assert order == [(2, 0), (1, 0)]

    def test_no_order_for_cycles(self):
        events = [
            act(0, 1, "x"), act(1, 2, "x"),
            act(2, 2, "y"), act(3, 1, "y"),
        ]
        assert serialization_order(events, same_name) is None

    def test_unsorted_input_is_sorted_by_position(self):
        events = [act(1, 2, "x"), act(0, 1, "x")]
        graph = serialization_graph(events, same_name)
        assert edges(graph) == [((1, 0), (2, 0))]
