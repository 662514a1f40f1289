"""Trace exporters: JSONL event log, Perfetto JSON, wait-for DOT.

All exporters operate on the flat record dictionaries produced by
:meth:`repro.obs.tracer.Tracer.records` (or read back from a JSONL log),
so post-processing never needs the live simulation objects;
:func:`export_all` writes every artifact in one pass over a tracer's
stamped events.  A record is written as
:func:`~repro.obs.events.json_record` spells it (non-finite floats as
strings), with one ``json.dumps(..., allow_nan=False)`` per line or
file.

Perfetto / Chrome trace-event format
------------------------------------
:func:`perfetto_trace` emits the JSON object form
(``{"traceEvents": [...]}``) understood by https://ui.perfetto.dev and
``chrome://tracing``:

* one track group per process (``pid`` = process id, track name
  ``P<pid>``), one thread row per incarnation;
* complete spans (``ph: "X"``) for activity executions, paired
  start→commit/fail/cancel by activity uid;
* instant events (``ph: "i"``) for defers, cascades, conversions,
  aborts, commits, resubmissions, deadlock victims, and fault
  injections;
* counter tracks (``ph: "C"``) from the series gauges.

Virtual time has no wall unit; one virtual time unit is exported as one
millisecond (``ts`` is in microseconds), which keeps sub-unit activity
costs visible at Perfetto's default zoom.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.events import (
    STAMP_KEYS,
    ParkTracker,
    flat_record,
    json_record,
    record_to_event,
    restore_record,
    spell,
)
from repro.obs.series import SeriesBank

#: Exported µs per virtual time unit (1 vt unit == 1 ms on screen).
TS_SCALE = 1000.0

#: Record kinds rendered as Perfetto instants, with display names.
_INSTANT_KINDS = {
    "lock.defer": lambda r: f"defer:{r['reason']}",
    "lock.cascade": lambda r: f"cascade:{r.get('activity') or 'commit'}",
    "lock.self-abort": lambda r: f"self-abort:{r['reason']}",
    "lock.convert": lambda r: f"convert:{r['type_name']}",
    "process.abort-begin": lambda r: f"abort:{r['cause']}",
    "process.commit": lambda r: "commit",
    "process.resubmit": lambda r: f"resubmit#{r['incarnation']}",
    "deadlock.victim": lambda r: "deadlock-victim",
    "deadlock.forced": lambda r: f"forced:{r['request']}",
    "fault.inject": lambda r: f"fault:{r['channel']}",
}

#: Span-terminating kinds, keyed off the start's activity uid.
_SPAN_ENDS = {"activity.commit", "activity.fail", "activity.cancel"}

#: One JSONL line's JSON (what ``json.dumps(record, sort_keys=True,
#: allow_nan=False)`` writes, without an encoder built per line).
_line = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def write_jsonl(records: list[dict], path: str | Path) -> Path:
    """Write one strict-JSON record per line; returns the path."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_line(json_record(record)) + "\n")
    return target


def read_jsonl(path: str | Path) -> list[dict]:
    """Read a JSONL event log back into record dictionaries."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(restore_record(json.loads(line)))
    return records


class _Perfetto:
    """Perfetto trace events, fed one JSON-spelled record at a time."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.pids: set[int] = set()
        self.open_spans: dict[int, dict] = {}
        self.max_t = 0.0

    def add(self, record: dict) -> None:
        t, kind, pid = record["t"], record["kind"], record.get("pid")
        self.max_t = max(self.max_t, t)
        if pid is not None and pid not in self.pids:
            self.pids.add(pid)
            self.events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": f"P{pid}"},
                }
            )
        if kind == "activity.start":
            self.open_spans[record["uid"]] = record
        elif kind in _SPAN_ENDS:
            start = self.open_spans.pop(record["uid"], None)
            if start is not None:
                self._close_span(start, t, kind)
        elif kind in _INSTANT_KINDS:
            self.events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": pid if pid is not None else 0,
                    "tid": record.get("incarnation", 0),
                    "name": _INSTANT_KINDS[kind](record),
                    "cat": kind,
                    "ts": t * TS_SCALE,
                    "args": {
                        key: value
                        for key, value in record.items()
                        if key not in STAMP_KEYS and value is not None
                    },
                }
            )

    def _close_span(self, start: dict, end_t: float, outcome: str) -> None:
        self.events.append(
            {
                "ph": "X",
                "pid": start["pid"],
                "tid": start.get("incarnation", 0),
                "name": start["activity"],
                "cat": (
                    "compensation"
                    if start.get("compensation")
                    else "activity"
                ),
                "ts": start["t"] * TS_SCALE,
                "dur": max(end_t - start["t"], 0.0) * TS_SCALE,
                "args": {"uid": start["uid"], "outcome": outcome},
            }
        )

    def trace(self, series: SeriesBank | dict | None) -> dict:
        """The trace object: spans still open when the trace ended (e.g.
        the run was cut off) close at its last stamp, and the series
        gauges become counter tracks."""
        for start in self.open_spans.values():
            self._close_span(start, self.max_t, "open")
        if isinstance(series, SeriesBank):
            series = series.to_dict()
        for name, points in (series or {}).get("gauges", {}).items():
            for t, value in points:
                if not math.isfinite(value):
                    continue  # counter tracks must stay numeric
                self.events.append(
                    {
                        "ph": "C",
                        "pid": 0,
                        "name": name,
                        "ts": t * TS_SCALE,
                        "args": {name.rsplit("/", 1)[-1]: value},
                    }
                )
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "exporter": "repro.obs",
                "virtual_time_unit_us": TS_SCALE,
            },
        }


def perfetto_trace(
    records: list[dict], series: SeriesBank | dict | None = None
) -> dict:
    """Convert trace records (+ optional series) to Perfetto JSON; the
    instants' ``args`` are spelled as :func:`json_record` spells them."""
    perfetto = _Perfetto()
    for record in records:
        perfetto.add(json_record(record))
    return perfetto.trace(series)


class _WaitFor:
    """The wait-for graph, replayed through the park rule
    (:class:`~repro.obs.events.ParkTracker`) one event at a time; keeps
    the open parks, in park order, and the largest graph seen."""

    def __init__(self) -> None:
        self.live: dict = {}
        self.size = 0
        self.best: list = []
        self.best_t = 0.0
        self.best_size = -1
        self.parks = ParkTracker(self._ended)

    def _ended(self, park, event) -> None:
        del self.live[park]
        self.size -= len(park.wait_for)

    def observe(self, t: float, event) -> None:
        started = self.parks.observe(t, event)
        if started is None:
            return  # the graph only shrank, if it changed at all
        self.live[started] = None
        self.size += len(started.wait_for)
        if self.size > self.best_size:
            self.best_size, self.best_t = self.size, t
            self.best = list(self.live)

    def dot(self, at: float | None = None) -> str:
        """DOT of the graph at ``at`` (replayed up to it), or of the
        largest graph seen when ``at`` is ``None``."""
        snapshot = list(self.live) if at is not None else self.best
        when = at if at is not None else self.best_t
        lines = [
            "digraph waitfor {",
            "  rankdir=LR;",
            f'  label="wait-for graph @ vt {when:g}";',
            "  node [shape=circle];",
        ]
        nodes: set[int] = set()
        for park in snapshot:
            nodes.add(park.pid)
            nodes.update(park.wait_for)
        for pid in sorted(nodes):
            lines.append(f'  p{pid} [label="P{pid}"];')
        for park in snapshot:
            # Annotate each edge with the lock shard (subsystem) the
            # parked request contends on; commit requests span shards
            # and carry none.
            label = park.reason
            if park.shard:
                label += f"\\n@{park.shard}"
            for blocker in park.wait_for:
                lines.append(f'  p{park.pid} -> p{blocker} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def wait_for_dot(records: list[dict], at: float | None = None) -> str:
    """DOT snapshot of the wait-for graph at virtual time ``at``.

    Replays the decisions through the park rule; with ``at`` omitted
    the snapshot is taken at the moment the graph held the most edges —
    the most interesting picture of a run's contention.
    """
    waits = _WaitFor()
    for record in records:
        if record["kind"] not in ParkTracker.KINDS:
            continue
        if at is not None and record["t"] > at:
            break
        waits.observe(record["t"], record_to_event(record))
    return waits.dot(at)


def export_all(tracer, out_dir: str | Path) -> dict[str, Path]:
    """Write every export of one traced run into ``out_dir``.

    Produces ``events.jsonl``, ``trace.perfetto.json``,
    ``waitfor.dot`` and ``series.json``; returns the written paths keyed
    by artifact name.  One pass over the stamped events writes each
    JSONL line and feeds the Perfetto trace and the wait-for replay.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out / "events.jsonl",
        "perfetto": out / "trace.perfetto.json",
        "waitfor": out / "waitfor.dot",
        "series": out / "series.json",
    }
    perfetto, waits = _Perfetto(), _WaitFor()
    park_kinds = ParkTracker.KINDS
    with paths["events"].open("w", encoding="utf-8") as handle:
        for seq, t, event in tracer.stamped:
            record = json_record(flat_record(seq, t, event))
            handle.write(_line(record) + "\n")
            perfetto.add(record)
            if event.kind in park_kinds:
                waits.observe(t, event)
    series = tracer.series.to_dict()
    trace = json.dumps(perfetto.trace(series), allow_nan=False)
    paths["perfetto"].write_text(trace + "\n", encoding="utf-8")
    paths["waitfor"].write_text(waits.dot(), encoding="utf-8")
    for points in series["gauges"].values():  # after the counter tracks
        for point in points:
            point[1] = spell(point[1])
    text = json.dumps(series, indent=2, allow_nan=False)
    paths["series"].write_text(text + "\n", encoding="utf-8")
    return paths
