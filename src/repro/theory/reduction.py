"""Reducibility of process schedules (paper Definition 4).

A process schedule is *reducible* (RED) when finitely many applications of

* the **commutativity rule** — adjacent commuting activities of different
  processes may swap — and
* the **compensation rule** — an adjacent pair ``(a, a⁻¹)`` of the same
  process may be removed —

transform it into a *serial* schedule (each process's surviving activities
contiguous).

:func:`poly_is_reducible` decides RED in one forward sweep
(:class:`Reduction`): it cancels compensated pairs whose open interval
holds no surviving conflicting activity of another process and no
surviving activity of the same process, and keeps the process-level
serialization graph over the survivors; the schedule is reducible iff
that graph is acyclic.  Cancelling a removable pair only ever deletes
conflict edges and unblocks other pairs, so the greedy fixpoint is
confluent and the procedure is exact under perfect commutativity.  The
same sweep, forgetting terminated processes, decides P-RED
(:class:`repro.theory.criteria.ScheduleMonitor`).

The sweep deliberately refrains from intra-process swaps (rule 1, case
``i = j``): the observed order of one process's activities is treated as
required.  This is conservative — it can only under-approximate
reducibility — and the protocol's schedules pass without intra-process
swaps.  Property tests compare the sweep with a literal search over rule
applications (``tests/test_theory/oracles.py``).
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

from repro.core.deadlock import find_cycle
from repro.theory.schedule import ProcessKey, ProcessSchedule, ScheduleEvent


# ----------------------------------------------------------------------
# polynomial decider: one forward sweep
# ----------------------------------------------------------------------
class Reduction:
    """The compensation rule and the serialization graph, in one sweep.

    Activities are appended in observed order.  A new event lands after
    every open compensation interval, so the survivors of prefix k+1
    are the cancellation fixpoint of prefix k's survivors plus that one
    event, and every conflict edge it adds points into its own process.
    The sweep keeps:

    * ``survivors`` (by uid, in observed order), also grouped by type
      and by process;
    * ``out[p][q]``: how many ordered conflicting survivor pairs run
      from process ``p`` to process ``q`` — an edge ``p -> q`` of the
      serialization graph while it is positive — and ``indegree[q]``,
      the number of such edges into ``q``;
    * ``stuck``: compensation pairs that could not cancel yet, retried
      whenever a cancellation happens.

    A pair ``(a, a⁻¹)`` cancels when the survivors strictly between
    them hold neither an activity of ``a``'s process nor one whose type
    conflicts with ``a``'s.  Cancelling only deletes edges and unblocks
    other pairs, so the fixpoint is confluent.

    **Forgetting** (the deletion rule of serialization-graph testing).
    Since an edge only ever points into the process of the event just
    appended, a terminated process (:meth:`terminate`) gains no edge
    into it again; once it has none, no cycle passes through it, and
    its survivors block no pair (a survivor ``b`` between ``a`` and
    ``a⁻¹`` conflicting with ``a`` is the edge ``a -> b``, into its own
    process).  Then it leaves every structure above, and its out-edges
    may free others in turn; until then it is ``held``.
    """

    def __init__(self, conflicts_of: Mapping[str, Collection[str]]) -> None:
        self.conflicts_of = conflicts_of
        self.survivors: dict[int, ScheduleEvent] = {}
        self.by_type: dict[str, dict[int, ScheduleEvent]] = {}
        self.by_process: dict[ProcessKey, dict[int, ScheduleEvent]] = {}
        #: Per type, the number of survivors of each process.
        self.type_counts: dict[str, dict[ProcessKey, int]] = {}
        self.out: dict[ProcessKey, dict[ProcessKey, int]] = {}
        self.indegree: dict[ProcessKey, int] = {}
        self.stuck: list[tuple[ScheduleEvent, ScheduleEvent]] = []
        #: Terminated processes that still have an incoming edge.
        self.held: set[ProcessKey] = set()
        #: Held processes whose last incoming edge went, to forget.
        self._freed: list[ProcessKey] = []

    @classmethod
    def of(cls, schedule: ProcessSchedule) -> "Reduction":
        """The reduction of the whole schedule (forgetting nothing)."""
        reduction = cls(schedule.conflicts_of)
        for event in schedule.events:
            if event.is_activity:
                reduction.append(event)
        return reduction

    def append(self, event: ScheduleEvent) -> bool:
        """Add the next activity; whether it created a process edge."""
        regular = (
            None
            if event.compensates is None
            else self.survivors.get(event.compensates)
        )
        if regular is not None:
            if not self._blocked(regular, event.position):
                self._remove(regular)
                self._retry_stuck()
                self._forget()
                return False
            self.stuck.append((regular, event))
        return self._insert(event)

    def terminate(self, process: ProcessKey) -> None:
        """``process`` has terminated: forget it once nothing points
        into it."""
        self.held.add(process)
        if process not in self.indegree:
            self._freed.append(process)
            self._forget()

    def closes_cycle(self, process: ProcessKey) -> bool:
        """Whether ``process`` reaches itself in the graph."""
        stack = [process]
        seen = {process}
        while stack:
            for head in self.out.get(stack.pop(), ()):
                if head == process:
                    return True
                if head not in seen:
                    seen.add(head)
                    stack.append(head)
        return False

    def _insert(self, event: ScheduleEvent) -> bool:
        process = event.process
        grew = False
        type_counts = self.type_counts
        for name in self.conflicts_of[event.name]:
            if name not in type_counts:
                continue
            for tail, count in type_counts[name].items():
                if tail == process:
                    continue
                row = self.out.setdefault(tail, {})
                if process in row:
                    row[process] += count
                else:
                    row[process] = count
                    self.indegree[process] = self.indegree.get(process, 0) + 1
                    grew = True
        self.survivors[event.uid] = event
        self.by_type.setdefault(event.name, {})[event.uid] = event
        self.by_process.setdefault(process, {})[event.uid] = event
        counts = type_counts.setdefault(event.name, {})
        counts[process] = counts.get(process, 0) + 1
        return grew

    def _remove(self, event: ScheduleEvent) -> None:
        process = event.process
        del self.survivors[event.uid]
        del self.by_type[event.name][event.uid]
        del self.by_process[process][event.uid]
        counts = self.type_counts[event.name]
        counts[process] -= 1
        if not counts[process]:
            del counts[process]
        for name in self.conflicts_of[event.name]:
            later: dict[ProcessKey, int] = {}
            for other in reversed(self.by_type.get(name, {}).values()):
                if other.position < event.position:
                    break
                later[other.process] = later.get(other.process, 0) + 1
            for other, count in self.type_counts.get(name, {}).items():
                if other == process:
                    continue
                after = later.get(other, 0)
                self._unpair(other, process, count - after)
                self._unpair(process, other, after)

    def _unpair(self, tail: ProcessKey, head: ProcessKey, count: int) -> None:
        if count:
            row = self.out[tail]
            row[head] -= count
            if not row[head]:
                del row[head]
                self._lose_edge(head)

    def _lose_edge(self, head: ProcessKey) -> None:
        left = self.indegree.pop(head) - 1
        if left:
            self.indegree[head] = left
        elif head in self.held:
            self._freed.append(head)

    def _forget(self) -> None:
        """Drop the freed processes, and those their out-edges free."""
        while self._freed:
            gone = self._freed.pop()
            self.held.discard(gone)
            for event in self.by_process.pop(gone, {}).values():
                del self.survivors[event.uid]
                del self.by_type[event.name][event.uid]
                self.type_counts[event.name].pop(gone, None)
            for head in self.out.pop(gone, ()):
                self._lose_edge(head)
            if self.stuck:
                self.stuck = [
                    pair for pair in self.stuck if pair[0].process != gone
                ]

    def _blocked(self, regular: ScheduleEvent, until: int) -> bool:
        """A survivor strictly between ``regular`` and ``until`` blocks."""
        groups = [self.by_process[regular.process]]
        groups += (
            self.by_type[name]
            for name in self.conflicts_of[regular.name]
            if name in self.by_type
        )
        for group in groups:
            for other in reversed(group.values()):
                if other.position <= regular.position:
                    break
                if other.position < until:
                    return True
        return False

    def _retry_stuck(self) -> None:
        progress = True
        while progress:
            progress = False
            for pair in list(self.stuck):
                regular, compensation = pair
                if regular.uid not in self.survivors:
                    self.stuck.remove(pair)
                elif not self._blocked(regular, compensation.position):
                    self.stuck.remove(pair)
                    self._remove(regular)
                    self._remove(compensation)
                    progress = True


def poly_is_reducible(schedule: ProcessSchedule) -> bool:
    """Decide RED in polynomial time: the final graph is acyclic."""
    return find_cycle(Reduction.of(schedule).out) is None
