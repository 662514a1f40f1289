"""Virtual-time series collectors.

A :class:`SeriesBank` accumulates two shapes of telemetry while a traced
run executes:

* **gauges** — ``(virtual time, value)`` step series sampled on manager
  events (parked-request count, lock-table depth, live processes,
  in-flight activities, per-process Wcc).  Consecutive equal samples are
  deduplicated, so a gauge stores one point per *change*.
* **histograms** — counters keyed by a label (defer reasons,
  conflict-hit counts per activity type, cascade victims per type).

The bank is fed by the :class:`~repro.obs.tracer.Tracer` (which derives
histogram bumps from the event stream and polls the bound gauge sampler
on every emit) and serialized by ``to_dict`` for the ``series.json``
export and the Perfetto counter tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Series:
    """One step series of ``(t, value)`` samples (deduplicated)."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def record(self, t: float, value: float) -> None:
        if self.points and self.points[-1][1] == value:
            return
        self.points.append((t, value))

    @property
    def last(self) -> float | None:
        return self.points[-1][1] if self.points else None


class SeriesBank:
    """Named gauges plus labelled histograms for one traced run."""

    def __init__(self) -> None:
        self.gauges: dict[str, Series] = {}
        self.histograms: dict[str, dict[str, int]] = {}

    def gauge(self, name: str, t: float, value: float) -> None:
        series = self.gauges.get(name)
        if series is None:
            series = self.gauges[name] = Series(name)
        series.record(t, value)

    def bump(self, histogram: str, key: str, n: int = 1) -> None:
        bucket = self.histograms.setdefault(histogram, {})
        bucket[key] = bucket.get(key, 0) + n

    def to_dict(self) -> dict:
        return {
            "gauges": {
                name: [[t, value] for t, value in series.points]
                for name, series in sorted(self.gauges.items())
            },
            "histograms": {
                name: dict(sorted(bucket.items()))
                for name, bucket in sorted(self.histograms.items())
            },
        }
