"""Deterministic discrete-event simulation engine.

The engine advances a virtual clock and fires scheduled callbacks in
``(time, sequence)`` order, making every run fully deterministic for a
given seed.  Wall-clock concurrency of the WISE/OPERA deployment is
replaced by virtual-time interleaving — the process-locking decisions
depend only on the interleaving order, which is faithfully represented.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SchedulerError


@dataclass(slots=True)
class _Scheduled:
    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False


class SimulationEngine:
    """A virtual-time event loop.

    The heap holds ``(time, seq, item)`` tuples rather than the items
    themselves: ``seq`` is unique, so comparisons resolve at C level on
    the tuple prefix and never reach the (incomparable) payload — same
    firing order as ordering the items directly, without a Python-level
    ``__lt__`` per heap sift.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, _Scheduled]] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> _Scheduled:
        """Run ``callback`` at ``now + delay``; returns a cancel handle."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay!r}")
        item = _Scheduled(
            time=self.now + delay, seq=next(self._seq), callback=callback
        )
        heapq.heappush(self._queue, (item.time, item.seq, item))
        return item

    @staticmethod
    def cancel(item: _Scheduled) -> None:
        """Cancel a scheduled callback (no-op if already fired)."""
        item.cancelled = True

    def _fire(self, deadline: float, limit: int, max_events: int) -> int:
        """Fire events due by ``deadline``, at most ``limit`` of them.

        The one loop behind :meth:`run`, :meth:`run_due` and
        :meth:`run_steps`: pop, skip cancelled, advance the clock, fire,
        count.  Returns how many fired.

        Raises
        ------
        SchedulerError
            If more than ``max_events`` fire — a livelock guard.
        """
        queue = self._queue
        fired = 0
        while queue and queue[0][0] <= deadline and fired < limit:
            time, _seq, item = heapq.heappop(queue)
            if item.cancelled:
                continue
            if time < self.now:  # pragma: no cover - defensive
                raise SchedulerError("event queue went back in time")
            self.now = time
            item.callback()
            self.events_processed += 1
            fired += 1
            if fired > max_events:
                raise SchedulerError(
                    f"simulation exceeded {max_events} events; "
                    "suspected livelock"
                )
        return fired

    def run(self, max_events: int = 1_000_000) -> None:
        """Process events until the queue drains.

        Raises
        ------
        SchedulerError
            If more than ``max_events`` fire — a livelock guard.
        """
        self._fire(math.inf, sys.maxsize, max_events)

    def run_due(
        self, deadline: float, max_events: int = 1_000_000
    ) -> int:
        """Process every event due by ``deadline``; returns the count.

        The service front end (:mod:`repro.server`) uses this to pace
        virtual time against the wall clock: each real-time tick
        advances the clock to its mapped virtual deadline and fires
        exactly the events due by then, leaving later events queued.
        The clock lands *on* the deadline even when nothing fired, so
        subsequent arrivals are stamped with the paced time.
        """
        fired = self._fire(deadline, sys.maxsize, max_events)
        if self.now < deadline:
            self.now = deadline
        return fired

    def run_steps(self, limit: int) -> int:
        """Process at most ``limit`` events; returns how many fired.

        Used by the crash-recovery tests to stop the world at an
        arbitrary point mid-simulation.  No livelock guard.
        """
        return self._fire(math.inf, limit, sys.maxsize)

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(
            1 for _, _, item in self._queue if not item.cancelled
        )
