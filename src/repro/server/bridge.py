"""Bridge the manager's decision events onto the service event bus.

:class:`BusTracer` satisfies the :class:`repro.obs.Tracer` protocol
(``enabled`` / ``emit`` / ``bind_clock`` / ``bind_sampler`` /
``refresh_gauges``), so it slots into
:func:`repro.scheduler.manager.make_manager` exactly where a recording
tracer would — but instead of banking series it stamps each event and
publishes it on the bus under ``topic = event.kind``,
flattened to the same ``{seq, t, kind, **payload}`` record shape the
JSONL exporter writes.  The record is built only when a live
subscription covers the kind: an event nobody listens to consumes its
sequence number and is counted, nothing more (the flight recorder is
the ring of recent events; it flattens when dumped).

Stamping uses the *virtual* clock the manager binds, so the record
stream of a fixed-seed scripted session is byte-identical run to run —
wall time never leaks into the frames.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from repro.obs.events import flat_record
from repro.server.bus import EventBus


class BusTracer:
    """Tracer-compatible adapter that republishes events to a bus.

    The sampler hook is accepted but unused: gauge polling exists for
    the series bank, and polling per emit would only add jitter to the
    event stream clients see.  ``emit`` runs where the engine drains
    only, which makes it the bus's one publisher; only the bus's
    subscriber list is locked, because in-process subscribers may come
    and go from any thread.
    """

    enabled = True

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        #: Mirrors :attr:`repro.obs.Tracer.offset`: added to every
        #: clock reading so stamps stay monotone across manager
        #: incarnations under the fault injector.
        self.offset = 0.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._seq = itertools.count()
        self.emitted = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def bind_sampler(
        self, sampler: Callable[[], dict[str, float]]
    ) -> None:
        """Accepted for protocol compatibility; gauges are not bridged."""

    def refresh_gauges(self) -> None:
        """Gauges are not bridged."""

    def emit(self, event) -> None:
        """Stamp and publish one decision event, flattened on demand."""
        kind = event.kind
        seq = next(self._seq)
        self.emitted += 1
        bus = self.bus
        record = None
        if bus.listeners(kind):
            record = flat_record(seq, self._clock() + self.offset, event)
        bus.publish(kind, record)
