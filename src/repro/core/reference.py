"""Naive reference implementations of the indexed hot-path queries.

The scheduling hot path is served by incremental indexes (the conflict
adjacency map in :class:`~repro.activities.commutativity.ConflictMatrix`,
the blocker index in :class:`~repro.core.lock_table.LockTable`, and the
process manager's wake-up index).  This module keeps the original
recompute-from-scratch formulations alive as *oracles*:

* :meth:`LockTable.check_invariants` compares the blocker index against
  :func:`naive_blocked_by` on every audit;
* the property tests churn a table through random histories and assert
  index/oracle agreement after every step;
* ``tests/test_scheduler/test_naive_equivalence.py`` runs whole
  workloads through the naive path and asserts byte-identical
  schedules;
* :func:`naive_blocker_pids` and :func:`naive_probe_blocked` walk the
  dict-based conflict adjacency instead of ANDing bitmasks, for the
  compiled-table property tests — the dict-based
  :class:`ConflictMatrix` itself stays the dev-time oracle of the
  compiled bitsets.

The functions intentionally reach into private table state — they *are*
the specification of what that state means.
"""

from __future__ import annotations

from repro.process.instance import Process


def naive_conflicting_types(matrix, name: str) -> set[str]:
    """O(pairs) scan over every declared conflict (pre-index behavior)."""
    matrix._registry.get(name)
    result: set[str] = set()
    for pair in matrix._conflicts:
        if name in pair:
            other = set(pair) - {name}
            result.add(next(iter(other)) if other else name)
    return result


def naive_conflicting_locks(
    table, type_name: str, exclude_pid: int | None = None
) -> list:
    """Collect-then-sort formulation of ``conflicting_locks``."""
    result = []
    candidates = set(
        naive_conflicting_types(table._conflicts, type_name)
    )
    for candidate in candidates:
        for entry in table._by_type.get(candidate, ()):
            if exclude_pid is not None and entry.pid == exclude_pid:
                continue
            result.append(entry)
    result.sort(key=lambda entry: entry.position)
    return result


def naive_commit_blockers(table, process: Process) -> set[int]:
    """O(locks²) re-derivation of the Commit-Rule blockers."""
    blockers: set[int] = set()
    for mine in table._by_pid.get(process.pid, ()):
        for other in naive_conflicting_locks(
            table, mine.type_name, exclude_pid=process.pid
        ):
            if other.position < mine.position:
                blockers.add(other.pid)
    return blockers


def naive_find_wait_cycle(edges: dict[int, set[int]]) -> list | None:
    """Unguarded cycle search through the real :mod:`networkx`.

    Rebuilds the wait-for graph as an actual ``networkx.DiGraph`` (with
    the same node/edge insertion order
    :func:`~repro.core.deadlock.find_wait_cycle` uses) and runs
    ``nx.find_cycle`` on *every* call — the formulation the scheduler
    used before the in-tree port and the walk from the parking pid
    replaced it.  When a cycle exists both return the same one; this is
    the oracle the ported cycle search is property-tested against.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for waiter, blockers in edges.items():
        # frozenset(...) mirrors find_wait_cycle exactly, so the edge
        # insertion order — and hence the found cycle — matches.
        for blocker in frozenset(blockers):
            if blocker != waiter:
                graph.add_edge(waiter, blocker)
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle]


def naive_blocked_by(table) -> dict[int, set[int]]:
    """The full blocker relation recomputed pairwise from the entries."""
    blocked_by: dict[int, set[int]] = {}
    entries = [e for es in table._by_pid.values() for e in es]
    conflict = table._conflicts.conflict
    for mine in entries:
        for other in entries:
            if (
                other.pid != mine.pid
                and other.position < mine.position
                and conflict(other.type_name, mine.type_name)
            ):
                blocked_by.setdefault(mine.pid, set()).add(other.pid)
    return blocked_by


def naive_blocker_pids(table, type_name: str, pid: int) -> set[int]:
    """Foreign holder pids conflicting with ``type_name`` (acquire-time
    blocker discovery, adjacency formulation)."""
    pids: set[int] = set()
    by_type = table._by_type
    for candidate in table._conflicts.conflicting_types(type_name):
        for other in by_type.get(candidate, ()):
            if other.pid != pid:
                pids.add(other.pid)
    return pids


def naive_probe_blocked(
    table, type_name: str, exclude_pid: int, ts: int, aborting
) -> bool:
    """Per-entry nested-loop formulation of ``probe_blocked``."""
    by_type = table._by_type
    for candidate in table._conflicts.conflicting_types(type_name):
        for entry in by_type.get(candidate, ()):
            holder = entry.process
            if holder.pid == exclude_pid:
                continue
            if holder.timestamp >= ts or holder.state is aborting:
                return True
    return False


def reference_classify_regular(protocol, process, activity):
    """Un-memoized Figure-1 classification (pre-``WccMemo`` formulation).

    Recomputes ``c(a) + c(a⁻¹)`` through the registry on every call.
    """
    from repro.core.locks import LockMode
    from repro.obs.events import ActivityClassified

    activity_type = activity.activity_type
    comp_cost = protocol.registry.compensation_cost(activity_type.name)
    process.charge_wcc(activity_type.cost + comp_cost)
    real_pivot = activity_type.point_of_no_return
    threshold = process.program.wcc_threshold
    pseudo_pivot = (
        not real_pivot
        and protocol.cost_based
        and process.wcc >= threshold
    )
    mode = LockMode.P if real_pivot or pseudo_pivot else LockMode.C
    if protocol.tracer.enabled:
        protocol.tracer.emit(
            ActivityClassified(
                pid=process.pid,
                incarnation=process.incarnation,
                activity=activity.name,
                mode=mode.value,
                wcc=process.wcc,
                threshold=threshold,
                pseudo_pivot=pseudo_pivot,
                real_pivot=real_pivot,
            )
        )
    return mode
