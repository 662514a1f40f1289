"""The whole schedule of a durable run, read back through ``Store.trace``.

A durable manager's recorder forgets the trace prefix each snapshot
made durable, and nothing in ``src/`` reads it back: the verdict the
recorder carries has seen it.  A test that compares schedules event for
event reads the prefix here.
"""

from __future__ import annotations

from repro.storage.journal import ProgramCodec, trace_event_from_row
from repro.theory.schedule import ProcessSchedule


def stored_events(store, catalog, trace) -> list:
    """Every event ``trace`` recorded: the prefix ``store`` holds, read
    through ``Store.trace`` with ``catalog``'s activity types, then the
    recorder's tail."""
    if not trace.base:
        return list(trace.events)
    codec = ProgramCodec(catalog)
    rows = store.trace.events(trace.base)
    return [
        trace_event_from_row(rows[position], position, codec)
        for position in range(trace.base)
    ] + trace.events


def stored_schedule(store, catalog, trace, conflict) -> ProcessSchedule:
    """:func:`stored_events` as a checkable schedule."""
    return ProcessSchedule(stored_events(store, catalog, trace), conflict)
