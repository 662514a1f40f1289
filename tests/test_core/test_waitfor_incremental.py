"""Property tests for the one cycle search behind deadlock handling.

:func:`find_cycle` must return the *identical* edge list the real
``networkx.find_cycle`` returns on the same insertion-ordered graph, and
:func:`find_wait_cycle` the same cycle as the unguarded networkx search
over the same relation, because the chosen cycle decides the deadlock
victim and the schedule bytes downstream.  (That the manager's walk
from the parking pid agrees with the search over the whole relation is
``tests/test_scheduler/test_wait_cycles.py``.)
"""

from __future__ import annotations

import networkx as nx  # test-only dependency (oracle)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadlock import find_cycle, find_wait_cycle
from tests.test_core.reference import naive_find_wait_cycle

NODES = st.integers(min_value=0, max_value=8)
#: 300 examples in tier-1; more under a larger profile (CI smoke: 2,000).
EXAMPLES = settings(max_examples=max(300, settings().max_examples),
                    deadline=None)


class TestPortedAlgorithmsMatchNetworkx:
    """The cycle search must be *byte-identical* to networkx.

    It feeds victim choice: a different (but equally valid) cycle would
    abort a different process and change the schedule, so equality is
    on the exact edge list, not just cycle-ness.
    """

    @EXAMPLES
    @given(
        edges=st.lists(st.tuples(NODES, NODES), max_size=28),
        isolated=st.lists(NODES, max_size=4),
    )
    def test_find_cycle_edges_identical(self, edges, isolated):
        graph = nx.DiGraph()
        graph.add_nodes_from(isolated)
        graph.add_edges_from(edges)  # self-loops included
        adjacency = {node: list(graph.adj[node]) for node in graph}
        try:
            expected = list(nx.find_cycle(graph))
        except nx.NetworkXNoCycle:
            expected = None
        assert find_cycle(adjacency) == expected

    @EXAMPLES
    @given(
        waits=st.dictionaries(
            NODES, st.frozensets(NODES, max_size=4), max_size=9
        )
    )
    def test_find_wait_cycle_matches_naive_oracle(self, waits):
        edges = {waiter: set(blockers) for waiter, blockers in waits.items()}
        assert find_wait_cycle(edges) == naive_find_wait_cycle(edges)
