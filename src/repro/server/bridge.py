"""Bridge the manager's decision events onto the service event bus.

:class:`BusTracer` is a sink of the manager's fold exactly where a
recording tracer would be: the fold stamps each event and hands it the
``(seq, t, event)`` triple, and the bridge publishes it on the bus
under ``topic = event.kind``, flattened to the same
``{seq, t, kind, **payload}`` record shape the JSONL exporter writes.
The record is built only when a live subscription covers the kind: an
event nobody listens to is only counted by the bus (the flight
recorder is the ring of recent events; it flattens when dumped).

The fold stamps with the *virtual* clock the manager binds, so the
record stream of a fixed-seed scripted session is byte-identical run
to run — wall time never leaks into the frames.
"""

from __future__ import annotations

from repro.obs.events import flat_record
from repro.server.bus import EventBus


class BusTracer:
    """Fold sink that republishes stamped events to a bus.

    ``emit`` runs where the engine drains only, which makes it the
    bus's one publisher; only the bus's subscriber list is locked,
    because in-process subscribers may come and go from any thread.
    """

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus

    def emit(self, seq: int, t: float, event) -> None:
        """Publish one stamped decision event, flattened on demand."""
        kind = event.kind
        bus = self.bus
        record = None
        if bus.listeners(kind):
            record = flat_record(seq, t, event)
        bus.publish(kind, record)
