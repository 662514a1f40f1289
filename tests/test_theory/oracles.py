"""Per-prefix and pairwise oracles for the one-sweep deciders.

The library decides RED, P-RED and P-RC in one forward pass each
(:class:`repro.theory.reduction.Reduction`,
:func:`repro.theory.criteria.check_process_recoverability`).  This
module keeps the direct transcriptions of the definitions they
replaced, for the property tests to compare against:

* :func:`exact_is_reducible` searches literal applications of the
  commutativity and compensation rules (Definition 4 itself);
* :func:`fixpoint_survivors` applies the compensation rule to a
  fixpoint over the whole schedule, and :func:`serialization_graph`
  tests every ordered pair of survivors for a conflict;
* :func:`per_prefix_first_bad` re-decides RED on every prefix;
* :func:`pairwise_prc_violations` evaluates Definition 7 on every
  cross-process conflicting activity pair.

All of them are O(n²) or worse (the search exponential) and meant for
small schedules.
"""

from __future__ import annotations

from collections.abc import Iterable

import networkx as nx  # test-only dependency (oracle)

from repro.core.deadlock import find_cycle
from repro.theory.schedule import (
    ConflictFn,
    EventKind,
    ProcessKey,
    ProcessSchedule,
    ScheduleEvent,
)


def exact_is_reducible(
    schedule: ProcessSchedule, max_states: int = 200_000
) -> bool:
    """Decide RED by exhaustive rule application (small schedules only).

    A depth-first search over activity sequences: moves swap adjacent
    commuting activities of different processes or cancel an adjacent
    ``(a, a⁻¹)`` pair; accepting states are serial.

    Raises
    ------
    RuntimeError
        If the search visits more than ``max_states`` states.
    """
    events = schedule.activities
    conflict = schedule.conflict
    initial = tuple(e.uid for e in events)
    info = {e.uid: e for e in events}

    def is_serial(state: tuple[int, ...]) -> bool:
        seen: list = []
        last = None
        for uid in state:
            proc = info[uid].process
            if proc != last:
                if proc in seen:
                    return False
                seen.append(proc)
                last = proc
        return True

    frontier = [initial]
    visited = {initial}
    while frontier:
        state = frontier.pop()
        if is_serial(state):
            return True
        if len(visited) > max_states:
            raise RuntimeError(
                "exact reducibility search exceeded the state budget"
            )
        for succ in _successors(state, info, conflict):
            if succ not in visited:
                visited.add(succ)
                frontier.append(succ)
    return False


def _successors(state, info, conflict):
    for i in range(len(state) - 1):
        first = info[state[i]]
        second = info[state[i + 1]]
        if (
            first.process != second.process
            and not conflict(first.name, second.name)
        ):
            swapped = list(state)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            yield tuple(swapped)
        if (
            first.process == second.process
            and second.compensates == first.uid
        ):
            yield state[:i] + state[i + 2:]


def serialization_graph(
    activities: Iterable[ScheduleEvent], conflict: ConflictFn
) -> dict[ProcessKey, dict[ProcessKey, None]]:
    """Process-level conflict graph over the given activity events.

    An adjacency mapping, insertion-ordered: an edge ``P_i -> P_j``
    whenever some activity of ``P_i`` precedes a conflicting activity
    of ``P_j`` in the observed order.
    """
    events = sorted(activities, key=lambda e: e.position)
    graph: dict[ProcessKey, dict[ProcessKey, None]] = {
        event.process: {} for event in events
    }
    for i, first in enumerate(events):
        for second in events[i + 1:]:
            if first.process == second.process:
                continue
            if conflict(first.name, second.name):
                graph[first.process][second.process] = None
    return graph


def is_conflict_serializable(
    activities: Iterable[ScheduleEvent], conflict: ConflictFn
) -> bool:
    """Acyclicity of the process-level serialization graph."""
    return find_cycle(serialization_graph(activities, conflict)) is None


def serialization_order(
    activities: Iterable[ScheduleEvent], conflict: ConflictFn
) -> list[ProcessKey] | None:
    """A topological process order witnessing serializability, if any."""
    graph = serialization_graph(activities, conflict)
    if find_cycle(graph) is not None:
        return None
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph)
    digraph.add_edges_from(
        (tail, head) for tail, heads in graph.items() for head in heads
    )
    return list(nx.topological_sort(digraph))


def fixpoint_survivors(schedule: ProcessSchedule) -> list[ScheduleEvent]:
    """Apply the compensation rule to a fixpoint; return the survivors.

    A pair ``(a, a⁻¹)`` cancels when the surviving events strictly
    between them hold neither an activity conflicting with ``a`` nor
    any activity of ``a``'s own process.
    """
    events = schedule.activities
    conflict = schedule.conflict
    order = {e.uid: idx for idx, e in enumerate(events)}
    by_uid = {e.uid: e for e in events}
    pairs = [
        (by_uid[event.compensates], event)
        for event in events
        if event.compensates in by_uid
    ]
    removed: set[int] = set()
    changed = True
    while changed:
        changed = False
        for regular, comp in pairs:
            if regular.uid in removed or comp.uid in removed:
                continue
            lo, hi = order[regular.uid], order[comp.uid]
            if lo > hi:
                continue  # malformed: compensation observed first
            if not any(
                between.uid not in removed
                and (
                    between.process == regular.process
                    or conflict(between.name, regular.name)
                )
                for between in events[lo + 1: hi]
            ):
                removed.update((regular.uid, comp.uid))
                changed = True
    return [e for e in events if e.uid not in removed]


def fixpoint_is_reducible(schedule: ProcessSchedule) -> bool:
    """RED: the fixpoint's survivors are conflict-serializable."""
    return is_conflict_serializable(
        fixpoint_survivors(schedule), schedule.conflict
    )


def per_prefix_first_bad(schedule: ProcessSchedule) -> int | None:
    """Length of the shortest prefix that is not RED, deciding each."""
    for cut in range(1, len(schedule.events) + 1):
        if not fixpoint_is_reducible(schedule.prefix(cut)):
            return cut
    return None


def _scan_for_no_return(
    schedule: ProcessSchedule, event: ScheduleEvent
) -> ScheduleEvent | None:
    """``a_i*``: the first later no-return activity or commit of its
    process, by a linear scan."""
    for later in schedule.events[event.position + 1:]:
        if later.process != event.process:
            continue
        if later.is_activity and later.point_of_no_return:
            return later
        if later.kind is EventKind.COMMIT:
            return later
    return None


def pairwise_prc_violations(
    schedule: ProcessSchedule,
) -> list[tuple[int, int]]:
    """Definition 7 over every conflicting pair: violating positions."""
    comp_pos = {
        event.compensates: event.position
        for event in schedule.events
        if event.is_compensation
    }
    acts = schedule.activities
    violations = []
    for i, earlier in enumerate(acts):
        if not earlier.compensatable or earlier.is_compensation:
            continue
        i_star = _scan_for_no_return(schedule, earlier)
        for later in acts[i + 1:]:
            if later.process == earlier.process or later.is_compensation:
                continue
            if not schedule.conflict(earlier.name, later.name):
                continue
            undo = comp_pos.get(earlier.uid)
            if undo is not None and undo < later.position:
                continue
            if i_star is not None and i_star.position < later.position:
                continue
            if later.compensatable:
                j_star = _scan_for_no_return(schedule, later)
                if j_star is None:
                    continue
                bad = i_star is None or i_star.position >= j_star.position
            else:
                bad = True
            if bad:
                violations.append((earlier.position, later.position))
    return violations
