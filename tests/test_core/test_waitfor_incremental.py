"""Property tests for the in-tree graph ports behind deadlock handling.

The ported :func:`find_cycle_edges` / :func:`topological_order` must
return *identical* results to the real ``networkx`` algorithms they
replaced, and :func:`find_wait_cycle` the same cycle as the unguarded
networkx search over the same relation, because the chosen cycle
decides the deadlock victim and the schedule bytes downstream.  (That
the manager's walk from the parking pid agrees with the search over
the whole relation is ``tests/test_scheduler/test_wait_cycles.py``.)
"""

from __future__ import annotations

import networkx as nx  # test-only dependency (oracle)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadlock import (
    Digraph,
    find_cycle_edges,
    find_wait_cycle,
    topological_order,
)
from repro.errors import ProtocolError
from tests.test_core.reference import naive_find_wait_cycle

NODES = st.integers(min_value=0, max_value=7)


class TestPortedAlgorithmsMatchNetworkx:
    """The in-tree ports must be *byte-identical* to networkx.

    ``find_cycle`` in particular feeds victim choice: a different (but
    equally valid) cycle would abort a different process and change the
    schedule, so equality is on the exact edge list, not just cycle-ness.
    """

    @settings(max_examples=150, deadline=None)
    @given(edges=st.lists(st.tuples(NODES, NODES), max_size=24))
    def test_find_cycle_edges_identical(self, edges):
        ours = Digraph()
        theirs = nx.DiGraph()
        for src, dst in edges:
            if src == dst:
                continue
            ours.add_edge(src, dst)
            theirs.add_edge(src, dst)
        assert list(ours.nodes) == list(theirs.nodes)
        assert list(ours.edges) == list(theirs.edges)
        try:
            expected = [
                (src, dst) for src, dst, _ in nx.find_cycle(theirs)
            ] if theirs.is_multigraph() else list(nx.find_cycle(theirs))
        except nx.NetworkXNoCycle:
            expected = None
        assert find_cycle_edges(ours) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        edges=st.lists(st.tuples(NODES, NODES), max_size=24),
        isolated=st.lists(NODES, max_size=4),
    )
    def test_topological_order_identical_on_dags(self, edges, isolated):
        ours = Digraph()
        theirs = nx.DiGraph()
        for node in isolated:
            ours.add_node(node)
            theirs.add_node(node)
        for src, dst in edges:
            if src < dst:  # guarantees acyclicity
                ours.add_edge(src, dst)
                theirs.add_edge(src, dst)
        assert topological_order(ours) == list(
            nx.topological_sort(theirs)
        )

    def test_topological_order_raises_on_cycle(self):
        graph = Digraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        with pytest.raises(ProtocolError):
            topological_order(graph)

    @settings(max_examples=150, deadline=None)
    @given(
        waits=st.dictionaries(
            NODES, st.frozensets(NODES, max_size=4), max_size=8
        )
    )
    def test_find_wait_cycle_matches_naive_oracle(self, waits):
        edges = {waiter: set(blockers) for waiter, blockers in waits.items()}
        assert find_wait_cycle(edges) == naive_find_wait_cycle(edges)
