"""Naive reference implementations of the indexed hot-path queries.

The scheduling hot path is served by compiled and incremental indexes
(the conflict plane of
:class:`~repro.activities.commutativity.ConflictMatrix`, the bitmasks
and the blocker index in :class:`~repro.core.lock_table.LockTable`).
This module keeps the original recompute-from-scratch formulations
alive as test *oracles*:

* :func:`full_audit` checks the whole table against them at once —
  what the table's per-step checks must never let drift;
* the property tests churn a table through random histories and assert
  index/oracle agreement after every step;
* ``tests/test_scheduler/test_naive_equivalence.py`` runs whole
  workloads through the naive path and asserts byte-identical
  schedules;
* :func:`naive_blocker_pids` and :func:`naive_probe_blocked` scan the
  declared conflict pairs instead of ANDing bitmasks, for the
  compiled-table property tests — the declared pairs stay the oracle
  of the compiled bitsets.

The functions intentionally reach into private table state — they *are*
the specification of what that state means.
"""

from __future__ import annotations

from repro.core.locks import LockMode
from repro.errors import ProtocolError
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
    used before :func:`~repro.core.deadlock.find_cycle` and the walk
    from the parking pid replaced it.  When a cycle exists both return
    the same one; this is the oracle ``find_wait_cycle`` is
    property-tested against.
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


def waiters_on(table, pid: int) -> frozenset[int]:
    """Pids whose commit is held up by ``pid``: the lock table's
    reverse map (``_blocks``), the transpose of ``commit_blockers``."""
    return frozenset(table._blocks.get(pid, ()))


def naive_blocker_pids(table, type_name: str, pid: int) -> set[int]:
    """Foreign holder pids conflicting with ``type_name`` (acquire-time
    blocker discovery, adjacency formulation)."""
    pids: set[int] = set()
    by_type = table._by_type
    for candidate in naive_conflicting_types(table._conflicts, type_name):
        for other in by_type.get(candidate, ()):
            if other.pid != pid:
                pids.add(other.pid)
    return pids


def naive_probe_blocked(
    table, type_name: str, exclude_pid: int, ts: int, aborting
) -> bool:
    """Per-entry nested-loop formulation of ``probe_blocked``."""
    by_type = table._by_type
    for candidate in naive_conflicting_types(table._conflicts, type_name):
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


def full_audit(table, live_pids) -> None:
    """Check the whole table at once; raise :class:`ProtocolError` on
    the first broken invariant:

    * every held lock belongs to a live process;
    * per-type lists are position-sorted;
    * the primary indexes agree;
    * the mode indexes (C lists, P counts) match the entries;
    * the blocker index is :func:`naive_blocked_by`, and the ``blocks``
      map its transpose;
    * the live-type and per-process bitmasks match a recomputation
      from the primary lists, and the compiled conflict rows of every
      live type are those the declared pairs give;
    * the lock counts, in all and per subsystem of the plane's types,
      are those the per-type lists hold.
    """
    plane = table._plane
    live = set(live_pids)
    seen_ids: set[int] = set()
    for type_name, entries in table._by_type.items():
        positions = [entry.position for entry in entries]
        if positions != sorted(positions):
            raise ProtocolError(
                f"lock list of {type_name!r} is not position-sorted"
            )
        for entry in entries:
            seen_ids.add(entry.lock_id)
            if entry.pid not in live:
                raise ProtocolError(
                    f"lock {entry} belongs to a terminated process"
                )
    if {e.lock_id for e in table.iter_entries()} != seen_ids:
        raise ProtocolError("lock table indexes disagree")
    for pid, entries in table._by_pid.items():
        c_ids = [e.lock_id for e in entries if e.mode is LockMode.C]
        if [e.lock_id for e in table._c_by_pid.get(pid, [])] != c_ids:
            raise ProtocolError(
                f"C-lock index of P{pid} disagrees with the entries"
            )
        p_count = sum(1 for e in entries if e.mode is LockMode.P)
        if table._p_counts.get(pid, 0) != p_count:
            raise ProtocolError(
                f"P-lock count of P{pid} disagrees with the entries"
            )
    expected = naive_blocked_by(table)
    actual = {
        pid: set(blockers)
        for pid, blockers in table._blocked_by.items()
        if blockers
    }
    if actual != expected:
        raise ProtocolError(
            f"blocker index disagrees with naive recomputation: "
            f"index={actual} naive={expected}"
        )
    transpose: dict[int, set[int]] = {}
    for waiter, blockers in table._blocked_by.items():
        for blocker in blockers:
            transpose.setdefault(blocker, set()).add(waiter)
    blocks = {
        pid: set(waiters) for pid, waiters in table._blocks.items() if waiters
    }
    if blocks != transpose:
        raise ProtocolError("blocks map is not the transpose of blocked_by")
    index = plane.index
    expected_live = 0
    for type_name in table._by_type:
        expected_live |= 1 << index[type_name]
    if table._live_mask != expected_live:
        raise ProtocolError(
            f"live-type mask {table._live_mask:#x} disagrees with the "
            f"per-type lists ({expected_live:#x})"
        )
    expected_pid_masks = {}
    for pid, entries in table._by_pid.items():
        mask = 0
        for entry in entries:
            mask |= 1 << index[entry.type_name]
        expected_pid_masks[pid] = mask
    if table._pid_type_masks != expected_pid_masks:
        raise ProtocolError(
            "per-process type masks disagree with the per-pid lists"
        )
    for type_name in table._by_type:
        row = {
            plane.names[i]
            for i in range(len(plane.names))
            if plane.masks[index[type_name]] >> i & 1
        }
        if row != naive_conflicting_types(table._conflicts, type_name):
            raise ProtocolError(
                f"compiled conflict row of {type_name!r} disagrees "
                f"with the declared pairs"
            )
    by_subsystem: dict[str, int] = {}
    registry = table._conflicts.registry
    for name in plane.names:
        subsystem = registry.get(name).subsystem
        by_subsystem[subsystem] = by_subsystem.get(subsystem, 0) + len(
            table._by_type.get(name, ())
        )
    counted = table.locks_by_subsystem()
    if counted != by_subsystem or list(counted) != list(by_subsystem):
        raise ProtocolError(
            f"per-subsystem lock counts {counted} disagree with the "
            f"per-type lists ({by_subsystem})"
        )
    if table.lock_count != sum(map(len, table._by_type.values())):
        raise ProtocolError(
            f"lock count {table.lock_count} disagrees with the per-type "
            f"lists"
        )
