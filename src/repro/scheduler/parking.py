"""The parked requests: who waits on whom, and whom a termination wakes.

A :class:`ParkingLot` owns every deferred lock or commit request of one
:class:`~repro.scheduler.manager.ProcessManager`, the three indexes
over them, the heap of requests a termination woke, and the waits-for
relation read off them.  It decides nothing: the manager parks what
the protocol deferred, applies the protocol's answer to each request
:meth:`ParkingLot.wake` hands back, and acts on the cycle
:meth:`ParkingLot.cycle_through` names.  The lot is handed the
manager's live-process table (pid -> process) and only reads it.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator

from repro.core.deadlock import find_wait_cycle
from repro.process.state import ProcessState
from repro.scheduler.events import ParkedRequest

#: Wake-up drains that may nest before a termination only queues its
#: waiters for an enclosing drain.  Each level costs six Python frames;
#: the golden points and 16-process bursts nest 7 deep, 150-400-process
#: runs 49-78, and the interpreter's stack gives out near 165
#: (DESIGN.md §7).
_MAX_NESTED_DRAINS = 96


class ParkingLot:
    """The parked requests of one manager, in park order."""

    def __init__(self, processes: dict) -> None:
        #: The manager's live processes (pid -> process), read only.
        self._processes = processes
        #: Parked requests keyed by park sequence (insertion-ordered):
        #: the one record of who waits on whom.  The three below index
        #: it; the wait-for relation is read from it, never mirrored.
        self._parked: dict[int, ParkedRequest] = {}
        self._seqs = itertools.count(1)
        #: pid -> its own parked requests by seq (park-ordered).
        self._parked_of: dict[int, dict[int, ParkedRequest]] = {}
        #: pid -> park seqs of requests waiting on that pid.
        self._wait_index: dict[int, set[int]] = {}
        #: Min-heap of park seqs woken by a termination, pending retry.
        self._wake_pending: list[int] = []
        #: Wake-up drains on the stack (see ``_MAX_NESTED_DRAINS``).
        self._drain_depth = 0
        #: Whether the last deadlock search may have left a cycle
        #: standing: it takes one victim per call, and a second cycle
        #: closed by the same park need not run through the next
        #: parking pid.
        self._cycle_standing = False

    def __len__(self) -> int:
        return len(self._parked)

    def __iter__(self) -> Iterator[ParkedRequest]:
        """Every parked request, in park order."""
        return iter(self._parked.values())

    def of(self, pid: int) -> tuple[ParkedRequest, ...]:
        """``pid``'s own parked requests, in park order."""
        own = self._parked_of.get(pid)
        return tuple(own.values()) if own else ()

    def park(self, request: ParkedRequest) -> None:
        """Store a deferred request and index its wait set.

        Every (re-)park draws a fresh sequence number, so the lot stays
        ordered by park time exactly like the historical
        append-to-a-list representation.
        """
        seq = request.seq = next(self._seqs)
        self._parked[seq] = request
        self._parked_of.setdefault(request.process.pid, {})[seq] = request
        for pid in request.wait_for:
            self._wait_index.setdefault(pid, set()).add(seq)

    def unpark(self, request: ParkedRequest) -> None:
        """Remove a parked request and unregister its index entries."""
        seq, waiter = request.seq, request.process.pid
        del self._parked[seq]
        own = self._parked_of[waiter]
        del own[seq]
        if not own:
            del self._parked_of[waiter]
        for pid in request.wait_for:
            bucket = self._wait_index.get(pid)
            if bucket is not None:
                bucket.discard(seq)
                if not bucket:
                    del self._wait_index[pid]

    def wake(self, dead_pid: int) -> Iterator[ParkedRequest]:
        """Unpark and yield, oldest park first, the requests to re-ask
        now that ``dead_pid`` terminated.

        The wait index maps each pid to the requests waiting on it, so
        a termination wakes exactly its dependents instead of
        re-polling every parked request to a fixpoint.  Woken requests
        are drained in park order through one shared min-heap; a
        re-ask can terminate further processes, whose nested drains
        push into the same heap — the innermost drain therefore always
        yields the oldest eligible request first, which reproduces the
        historical scan-in-park-order fixpoint exactly.  A request
        something it waits on still lives has been re-parked, and one
        of a terminated process is dropped.

        A generator, so a nested drain sits six frames above the one
        whose re-ask terminated ``dead_pid`` (none of them this
        generator's), and a long cascade chain would still exhaust the
        interpreter's stack.  ``_MAX_NESTED_DRAINS`` deep, a
        termination only queues its waiters: an enclosing drain is on
        the stack by construction and yields them, oldest first, as it
        unwinds.
        """
        pending, parked, live = (
            self._wake_pending, self._parked, self._processes
        )
        bucket = self._wait_index.pop(dead_pid, None)
        if bucket:
            for seq in bucket:
                heapq.heappush(pending, seq)
        if self._drain_depth >= _MAX_NESTED_DRAINS:
            return
        self._drain_depth += 1
        try:
            while pending:
                request = parked.get(heapq.heappop(pending))
                if request is None:
                    continue  # cancelled or already re-asked reentrantly
                if all(pid in live for pid in request.wait_for):
                    continue  # re-parked; everything it waits on is live
                self.unpark(request)
                if not request.process.state.is_terminal:
                    yield request
        finally:
            self._drain_depth -= 1

    def _blockers_of(self, request: ParkedRequest) -> frozenset[int]:
        """The pids ``request`` waits on right now."""
        if request.reason != "awaiting-cascade":
            return request.wait_for
        # A victim that is still running has its abort initiation pending
        # in the current callback; only victims whose aborts are genuinely
        # under way (and possibly stuck) are wait-graph edges.  Read live:
        # a victim becomes an edge when its abort begins, between the park
        # and the cycle check of one decision, and stops being one when
        # it terminates.
        return frozenset(
            pid
            for pid in request.wait_for
            if (proc := self._processes.get(pid)) is not None
            and proc.state is ProcessState.ABORTING
        )

    def wait_edges(self) -> dict[int, set[int]]:
        """The waits-for relation of the currently parked requests."""
        edges: dict[int, set[int]] = {}
        for request in self._parked.values():
            edges.setdefault(request.process.pid, set()).update(
                self._blockers_of(request)
            )
        return edges

    def _waits_on_itself(self, waiter: int) -> bool:
        """Whether ``waiter`` reaches itself over the waits-for relation
        (depth-first over each reached pid's own parked requests)."""
        parked_of = self._parked_of
        seen = {waiter}
        stack = [waiter]
        while stack:
            for request in parked_of.get(stack.pop(), {}).values():
                for pid in self._blockers_of(request):
                    if pid == waiter:
                        return True
                    if pid not in seen:
                        seen.add(pid)
                        stack.append(pid)
        return False

    def cycle_through(self, waiter: int) -> list[int] | None:
        """The wait-for cycle to act on after pid ``waiter`` parked a
        request, or ``None``.

        A park only adds edges that leave the parking pid, so a cycle it
        closes runs through that pid: the common acyclic case is
        answered by a walk from there.  Only when the walk comes back
        (or the previous search left a cycle standing) is the whole
        relation rebuilt from the parked requests, so the original
        search picks the exact same cycle.
        """
        if not (self._cycle_standing or self._waits_on_itself(waiter)):
            return None
        cycle = find_wait_cycle(self.wait_edges())
        self._cycle_standing = cycle is not None
        return cycle
