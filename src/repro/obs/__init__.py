"""Decision-level tracing and virtual-time telemetry.

The ``repro.obs`` package makes individual scheduling decisions — the
ordered-shared grants, deferments, conversions, cascades, and
timestamp-ordered resubmissions of the process-locking protocol —
observable, instead of only the end-of-run aggregates of
:mod:`repro.sim.metrics`:

* :mod:`repro.obs.events` — the typed event vocabulary (grants with
  positions, defers with the blocking holders and the rule that fired,
  cascades with the timestamp comparison, lifecycle spans, wait-for
  edge inserts/deletes, fault injections);
* :mod:`repro.obs.tracer` — the guard-checked :class:`Tracer` and the
  disabled :data:`NULL_TRACER` singleton that every emit site consults
  (disabled runs stay trace-equivalent and benchmark-neutral);
* :mod:`repro.obs.series` — virtual-time series sampled on manager
  events (parked gauge, lock-table depth, per-process Wcc, conflict
  histograms);
* :mod:`repro.obs.export` — JSONL event logs, Chrome
  trace-event/Perfetto JSON, and wait-for-graph DOT snapshots;
* :mod:`repro.obs.explain` — replay a JSONL trace into a
  human-readable causal account of one process's blocks, aborts, and
  resubmissions (``repro explain``);
* :mod:`repro.obs.metrics` — the deterministic metrics plane: a
  dependency-free registry of counters/gauges/histograms with
  Prometheus text exposition, the :class:`EventMetrics` feeder mapping
  the event stream onto it, and the :class:`MetricsTracer` tee;
* :mod:`repro.obs.flight` — a bounded ring of the last N events,
  dumped as JSONL on drain/crash so any incident is explainable.
"""

from repro.obs.explain import deferred_pids, explain_process
from repro.obs.export import (
    events_from_records,
    export_all,
    perfetto_trace,
    read_jsonl,
    record_to_event,
    wait_for_dot,
    write_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    EventMetrics,
    MetricsRegistry,
    MetricsTracer,
    histogram_quantile,
    parse_prometheus,
    replay_metrics,
)
from repro.obs.series import SeriesBank
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "EventMetrics",
    "FlightRecorder",
    "MetricsRegistry",
    "MetricsTracer",
    "NULL_TRACER",
    "NullTracer",
    "SeriesBank",
    "Tracer",
    "deferred_pids",
    "events_from_records",
    "explain_process",
    "export_all",
    "histogram_quantile",
    "parse_prometheus",
    "perfetto_trace",
    "read_jsonl",
    "record_to_event",
    "replay_metrics",
    "wait_for_dot",
    "write_jsonl",
]
