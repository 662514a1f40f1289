"""Wait-for bookkeeping and deadlock handling.

Process locking's waits are timestamp-disciplined: almost every deferment
makes a *younger* process wait for an *older* one, and the remaining
exceptions target the unique completing process (which itself never waits
on a running process) or aborting processes (which always terminate).
Under the basic protocol wait-for cycles therefore cannot form — this is
the paper's "timestamp-based deadlock prevention".

The cost-based extension introduces pseudo pivots whose P locks can make
an *older* process wait for a *younger running* one, so cycles become
possible there (and under the S2PL / pure-OSL baselines).  The manager
keeps no graph of its own: who waits on whom is read from the parked
requests.  A park only adds edges that leave the parking pid, so a cycle
it closes runs through that pid and the manager's per-park check is a
depth-first walk from there; only when that walk comes back to its start
is the whole relation handed to :func:`find_wait_cycle`, which
reproduces the original (historically networkx-backed) cycle *search* —
byte-for-byte the same cycle, hence the same victim.

Everything here is pure Python; the real networkx implementations
survive only as test oracles (``tests/test_core/reference.py`` and the
property tests).  The victim is the youngest *running* process on the cycle (never
a completing one, which by construction cannot be required).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.errors import ProtocolError


def has_cycle(adjacency: Mapping[int, Iterable[int]]) -> bool:
    """Whether the directed graph ``adjacency`` contains a cycle.

    Iterative three-color depth-first search over a plain mapping,
    O(nodes + edges): the guard in front of the full cycle search, and
    what the wait-cycle tests hold the manager's walk from the parking
    pid to.
    """
    done: set[int] = set()
    on_path: set[int] = set()
    for root in adjacency:
        if root in done:
            continue
        # stack of (node, iterator over its successors)
        stack = [(root, iter(adjacency.get(root, ())))]
        on_path.add(root)
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                if nxt in on_path:
                    return True
                if nxt not in done:
                    on_path.add(nxt)
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(node)
                done.add(node)
    return False


class Digraph:
    """Minimal insertion-ordered directed simple graph.

    Replicates the slice of ``networkx.DiGraph`` semantics this codebase
    relies on: node and edge iteration follow insertion order, adding an
    edge inserts missing endpoints (tail before head), removing an edge
    keeps its endpoints, and removing a node drops its incident edges in
    both directions.  Iteration order matters — the cycle search below
    walks nodes and out-edges in insertion order, and which cycle it
    returns decides which process the manager sacrifices.
    """

    __slots__ = ("_succ", "_pred")

    def __init__(self) -> None:
        # node -> {neighbor: None}; plain dicts give insertion order.
        self._succ: dict[int, dict[int, None]] = {}
        self._pred: dict[int, dict[int, None]] = {}

    def __contains__(self, node: int) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[int]:
        return iter(self._succ)

    @property
    def nodes(self) -> Iterator[int]:
        return iter(self._succ)

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        return (
            (tail, head)
            for tail, heads in self._succ.items()
            for head in heads
        )

    @property
    def adj(self) -> Mapping[int, Mapping[int, None]]:
        return self._succ

    def add_node(self, node: int) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, tail: int, head: int) -> None:
        self.add_node(tail)
        self.add_node(head)
        self._succ[tail][head] = None
        self._pred[head][tail] = None

    def successors(self, node: int) -> Iterator[int]:
        return iter(self._succ.get(node, ()))


def _edge_dfs(graph: Digraph, start_node: int) -> Iterator[tuple[int, int]]:
    """Depth-first search of *edges* from ``start_node``.

    Faithful port of ``networkx.edge_dfs`` specialized to a directed
    simple graph with ``orientation=None`` and a single start node: lazy
    per-node out-edge generators, a visited-edge set, and an explicit
    node stack, yielding edges in exactly the order networkx would.
    """
    visited_edges: set[tuple[int, int]] = set()
    visited_nodes: set[int] = set()
    generators: dict[int, Iterator[tuple[int, int]]] = {}
    stack = [start_node]
    while stack:
        current = stack[-1]
        if current not in visited_nodes:
            generators[current] = (
                (current, head)
                for head in graph._succ.get(current, ())
            )
            visited_nodes.add(current)
        try:
            edge = next(generators[current])
        except StopIteration:
            stack.pop()
        else:
            if edge not in visited_edges:
                visited_edges.add(edge)
                stack.append(edge[1])
                yield edge


def find_cycle_edges(
    graph: Digraph,
) -> list[tuple[int, int]] | None:
    """One cycle of ``graph`` as an edge list, or ``None``.

    Faithful port of ``networkx.find_cycle`` (directed graph,
    ``orientation=None``): start nodes are tried in insertion order, the
    edge-DFS tracks the active path with explicit backtrack pops, and
    the prefix leading into the cycle is pruned at the end.  Because the
    traversal order matches networkx exactly, it returns the *same*
    cycle the historical nx-backed implementation did — the property
    tests assert that against the real networkx as an oracle.
    """
    explored: set[int] = set()
    cycle: list[tuple[int, int]] = []
    final_node: int | None = None
    for start_node in graph:
        if start_node in explored:
            # No loop is possible.
            continue
        edges: list[tuple[int, int]] = []
        # All nodes seen in this iteration of the edge DFS.
        seen = {start_node}
        # Nodes on the active path.
        active_nodes = {start_node}
        previous_head: int | None = None
        for edge in _edge_dfs(graph, start_node):
            tail, head = edge
            if head in explored:
                # Already fully explored; no loop through here.
                continue
            if previous_head is not None and tail != previous_head:
                # This edge results from backtracking: pop the active
                # path until its last head equals the current tail.
                while True:
                    try:
                        popped_edge = edges.pop()
                    except IndexError:
                        edges = []
                        active_nodes = {tail}
                        break
                    else:
                        popped_head = popped_edge[1]
                        active_nodes.remove(popped_head)
                    if edges:
                        last_head = edges[-1][1]
                        if tail == last_head:
                            break
            edges.append(edge)
            if head in active_nodes:
                # We have a loop.
                cycle.extend(edges)
                final_node = head
                break
            seen.add(head)
            active_nodes.add(head)
            previous_head = head
        if cycle:
            break
        explored.update(seen)
    if not cycle:
        return None
    # Prune the leading edges that are not part of the cycle proper.
    i = 0
    for i, edge in enumerate(cycle):
        if edge[0] == final_node:
            break
    return cycle[i:]


def topological_order(graph: Digraph) -> list[int]:
    """A topological order of ``graph``.

    Port of ``networkx.topological_sort`` (which yields node after node
    out of ``topological_generations``): zero-indegree nodes are
    processed generation by generation in node-insertion order, so the
    returned order is exactly what networkx would produce.

    Raises
    ------
    ProtocolError
        If the graph contains a cycle.
    """
    indegree: dict[int, int] = {}
    zero_indegree: list[int] = []
    for node in graph:
        degree = len(graph._pred[node])
        if degree > 0:
            indegree[node] = degree
        else:
            zero_indegree.append(node)
    order: list[int] = []
    while zero_indegree:
        this_generation = zero_indegree
        zero_indegree = []
        for node in this_generation:
            order.append(node)
            for child in graph._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    zero_indegree.append(child)
                    del indegree[child]
    if indegree:
        raise ProtocolError(
            "topological_order: graph contains a cycle"
        )
    return order


def find_wait_cycle(edges: Mapping[int, Iterable[int]]) -> list[int] | None:
    """One wait cycle of the relation ``edges`` as a pid list, or ``None``.

    ``edges`` maps each waiter to its blockers.  The cheap
    :func:`has_cycle` walk answers the acyclic case; only when a cycle
    exists is the insertion-ordered graph built — waiters in mapping
    order, each one's blockers in ``frozenset`` iteration order, self
    edges dropped — and searched by :func:`find_cycle_edges`, which
    picks the same cycle (hence the same victim) the historical
    networkx-backed search did.
    """
    if not has_cycle(edges):
        return None
    graph = Digraph()
    for waiter, blockers in edges.items():
        for blocker in frozenset(blockers):
            if blocker != waiter:
                graph.add_edge(waiter, blocker)
    cycle = find_cycle_edges(graph)
    return [edge[0] for edge in cycle] if cycle else None


def choose_cycle_victim(
    cycle: list[int],
    timestamps: dict[int, int],
    running: set[int],
    protected: set[int] | None = None,
) -> int:
    """Pick the youngest running process on a wait cycle.

    ``protected`` processes (pseudo-pivot P-lock holders under the
    cost-based extension) are sacrificed only when every running cycle
    member is protected — deadlock resolution honours cascade
    protection as far as possible.

    Raises
    ------
    ProtocolError
        If no process on the cycle is running (would mean the protocol
        created a cycle of unabortable processes — Theorem 1's argument
        excludes this for correct implementations).
    """
    candidates = [pid for pid in cycle if pid in running]
    if not candidates:
        raise ProtocolError(
            f"unresolvable wait cycle {cycle}: no running process to abort"
        )
    if protected:
        unprotected = [
            pid for pid in candidates if pid not in protected
        ]
        if unprotected:
            candidates = unprotected
    return max(candidates, key=lambda pid: timestamps[pid])
