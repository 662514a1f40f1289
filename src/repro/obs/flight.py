"""Bounded in-memory flight recorder for the last N trace events.

The recorder is a ring buffer of ``(seq, t, event)`` triples with one
writer, the thread that drives the engine.  Appending is O(1), takes no
lock and never flattens the event — records are built lazily at dump
time, so a recorder in the service emit path costs one deque append per
event; a reader on another thread copies the ring in one step under the
GIL (``list(deque)``) before it looks.  Dumps go out as the same JSONL
records the exporters write, non-finite floats spelled as strings
(:func:`~repro.obs.events.json_record`), so ``repro explain`` and
:func:`replay_metrics` work on a crash dump exactly as on a full trace.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.events import flat_record, json_record

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring buffer of the last ``capacity`` emitted events."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Lifetime appends (events seen), not just the retained window.
        self.appended = 0
        #: How many dumps were taken.
        self.dumps = 0

    def append(self, seq: int, t: float, event) -> None:
        """Record one event; the one writer's call, unlocked."""
        self._ring.append((seq, t, event))
        self.appended += 1

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> list[dict]:
        """Flat record dictionaries for the retained window (oldest
        first), flattened only now.

        Each record is as :func:`~repro.obs.events.json_record` spells
        it — the fields that may hold a non-finite float hold its
        string spelling — so the records are strict JSON for the wire;
        :func:`~repro.obs.events.restore_record` reads them back.
        """
        with self._lock:
            window = list(self._ring)
            self.dumps += 1
        return [json_record(flat_record(*stamp)) for stamp in window]

    def dump_jsonl(self, path) -> int:
        """Write the retained window as JSONL; returns records written."""
        from repro.obs.export import write_jsonl

        records = self.snapshot()
        write_jsonl(records, path)
        return len(records)
