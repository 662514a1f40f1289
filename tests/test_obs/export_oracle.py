"""The exporters as they were while non-finite floats were spelled by
recursive walks: ``_jsonable`` re-walked every record, Perfetto trace and
series object before it was written, and ``_restore`` turned any string
spelled like a non-finite float back into a float.

Kept as the byte-identity oracle of :mod:`repro.obs.export`
(``test_export_oracle.py``): the field-plan spelling must write the
same bytes and ``repro explain`` the same text.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

from repro.obs.events import EVENT_TYPES, STAMP_KEYS, Holder, ParkTracker
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

#: String stand-ins for non-finite floats.  Strict JSON has no
#: ``Infinity``/``NaN`` tokens (Perfetto's importer rejects them), yet a
#: committed pivot legitimately drives ``Wcc`` to ``inf``.
_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _jsonable(value):
    """Recursively replace non-finite floats with their string names."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _restore(value):
    """Inverse of :func:`_jsonable` (applied on JSONL read-back)."""
    if isinstance(value, str) and value in _NONFINITE:
        return _NONFINITE[value]
    if isinstance(value, dict):
        return {key: _restore(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore(item) for item in value]
    return value


def write_jsonl(records: list[dict], path: str | Path) -> Path:
    """Write one strict-JSON record per line; returns the path."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    _jsonable(record), sort_keys=True, allow_nan=False
                )
                + "\n"
            )
    return target


def read_jsonl(path: str | Path) -> list[dict]:
    """Read a JSONL event log back into record dictionaries."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(_restore(json.loads(line)))
    return records


# ----------------------------------------------------------------------
# record -> event
# ----------------------------------------------------------------------
def record_to_event(record: dict):
    """Rebuild the typed event dataclass from one flat record.

    Inverse of :func:`repro.obs.events.flat_record` for the
    payload part: JSON round-trips turn tuples into lists and
    ``Holder`` entries into dicts, so this restores every field its
    annotation types as a tuple.  Covers every class in
    :data:`repro.obs.events.EVENT_TYPES`; raises :class:`ValueError`
    on an unknown kind and :class:`TypeError` when required payload
    fields are missing.
    """
    kind = record["kind"]
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    kwargs = {}
    for field_info in fields(cls):
        name = field_info.name
        if name not in record:
            continue  # absent optional field: let the default fill in
        value = record[name]
        if field_info.type == "tuple[Holder, ...]":
            value = tuple(
                item if isinstance(item, Holder) else Holder(**item)
                for item in value
            )
        elif field_info.type.startswith("tuple["):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _holder_args(record: dict) -> dict:
    """Perfetto ``args`` payload for a decision record."""
    args = {
        key: value
        for key, value in record.items()
        if key not in STAMP_KEYS and value is not None
    }
    return args


def perfetto_trace(
    records: list[dict], series: SeriesBank | dict | None = None
) -> dict:
    """Convert trace records (+ optional series) to Perfetto JSON."""
    trace_events: list[dict] = []
    pids_seen: set[int] = set()
    open_spans: dict[int, dict] = {}
    max_t = 0.0

    def note_pid(pid) -> None:
        if pid is None or pid in pids_seen:
            return
        pids_seen.add(pid)
        trace_events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"P{pid}"},
            }
        )

    def close_span(start: dict, end_t: float, outcome: str) -> None:
        span = {
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
        trace_events.append(span)

    for record in records:
        t = record["t"]
        max_t = max(max_t, t)
        kind = record["kind"]
        pid = record.get("pid")
        note_pid(pid)
        if kind == "activity.start":
            open_spans[record["uid"]] = record
        elif kind in _SPAN_ENDS:
            start = open_spans.pop(record["uid"], None)
            if start is None:
                continue
            close_span(start, t, kind)
        elif kind in _INSTANT_KINDS:
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": pid if pid is not None else 0,
                    "tid": record.get("incarnation", 0),
                    "name": _INSTANT_KINDS[kind](record),
                    "cat": kind,
                    "ts": t * TS_SCALE,
                    "args": _holder_args(record),
                }
            )
    # Spans still open when the trace ended (e.g. the run was cut off).
    for start in open_spans.values():
        close_span(start, max_t, "open")
    for name, points in _series_gauges(series).items():
        for t, value in points:
            if not math.isfinite(value):
                continue  # counter tracks must stay numeric
            trace_events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "name": name,
                    "ts": t * TS_SCALE,
                    "args": {name.rsplit("/", 1)[-1]: value},
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "virtual_time_unit_us": TS_SCALE,
        },
    }


def _series_gauges(
    series: SeriesBank | dict | None,
) -> dict[str, list]:
    if series is None:
        return {}
    if isinstance(series, SeriesBank):
        series = series.to_dict()
    return series.get("gauges", {})


def wait_for_dot(records: list[dict], at: float | None = None) -> str:
    """DOT snapshot of the wait-for graph at virtual time ``at``.

    Replays the decisions through the park rule
    (:class:`~repro.obs.events.ParkTracker`); with ``at`` omitted the
    snapshot is taken at the moment the graph held the most edges — the
    most interesting picture of a run's contention.
    """
    # The open parks, in park order, and their edge count.
    live: dict = {}
    size = 0

    def ended(park, event) -> None:
        nonlocal size
        del live[park]
        size -= len(park.wait_for)

    parks = ParkTracker(ended)
    best: list = []
    best_t = 0.0
    best_size = -1
    for record in records:
        if record["kind"] not in ParkTracker.KINDS:
            continue
        t = record["t"]
        if at is not None and t > at:
            break
        started = parks.observe(t, record_to_event(record))
        if started is None:
            continue  # the graph only shrank, if it changed at all
        live[started] = None
        size += len(started.wait_for)
        if size > best_size:
            best_size = size
            best = list(live)
            best_t = t
    snapshot = list(live) if at is not None else best
    when = at if at is not None else best_t
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
        # Annotate each edge with the lock shard (subsystem) the parked
        # request contends on; commit requests span shards and carry
        # none.
        label = (
            f"{park.reason}\\n@{park.shard}" if park.shard else park.reason
        )
        for blocker in park.wait_for:
            lines.append(f'  p{park.pid} -> p{blocker} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_all(tracer, out_dir: str | Path) -> dict[str, Path]:
    """Write every export of one traced run into ``out_dir``.

    Produces ``events.jsonl``, ``trace.perfetto.json``,
    ``waitfor.dot`` and ``series.json``; returns the written paths keyed
    by artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = tracer.records()
    paths = {
        "events": write_jsonl(records, out / "events.jsonl"),
    }
    perfetto = perfetto_trace(records, tracer.series)
    perfetto_path = out / "trace.perfetto.json"
    perfetto_path.write_text(
        json.dumps(_jsonable(perfetto), allow_nan=False) + "\n",
        encoding="utf-8",
    )
    paths["perfetto"] = perfetto_path
    dot_path = out / "waitfor.dot"
    dot_path.write_text(wait_for_dot(records), encoding="utf-8")
    paths["waitfor"] = dot_path
    series_path = out / "series.json"
    series_path.write_text(
        json.dumps(
            _jsonable(tracer.series.to_dict()), indent=2, allow_nan=False
        )
        + "\n",
        encoding="utf-8",
    )
    paths["series"] = series_path
    return paths
