"""The recording tracer: every event of a run, stamped and kept.

Every instrumented layer emits each event unconditionally to the
manager's tracer, which is always the counting fold
(:class:`~repro.obs.metrics.MetricsTracer`, whose
:class:`~repro.obs.metrics.EventMetrics` *is* ``manager.stats``).  A
:class:`Tracer` is what a run that must be explained hands the manager
on top: the fold stamps each event once and hands the sink the
``(seq, t, event)`` triple, which it keeps, feeding the series bank
(histogram bumps from the event stream, gauge samples from the bound
sampler), until an exporter (:mod:`repro.obs.export`) writes it out.
A run with or without one schedules byte-identically (the
zero-overhead tests and ``benchmarks/test_obs_overhead.py`` pin it).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.obs.events import (
    ActivityClassified,
    CascadeRequested,
    LockDeferred,
    flat_record,
)
from repro.obs.series import SeriesBank


class Tracer:
    """Collects stamped events and series for one (logical) run."""

    def __init__(self) -> None:
        #: Every event as the fold stamped it: ``(seq, t, event)``.
        self.stamped: list[tuple[int, float, object]] = []
        self.series = SeriesBank()
        self._sampler: Callable[[], dict[str, float]] | None = None
        #: The sampler's previous poll: a poll equal to it adds no
        #: point to any of its gauges (a series keeps changes only).
        self._sampled: dict[str, float] | None = None

    def bind_sampler(
        self, sampler: Callable[[], dict[str, float]]
    ) -> None:
        """Poll ``sampler()`` for gauge values on every emit."""
        self._sampler = sampler
        self._sampled = None

    def emit(self, seq: int, t: float, event) -> None:
        """Store one stamped event; update the series bank."""
        self.stamped.append((seq, t, event))
        bank = self.series
        if isinstance(event, LockDeferred):
            bank.bump("defer_reasons", event.reason)
            if event.activity is not None:
                bank.bump("conflicts_by_type", event.activity)
        elif isinstance(event, CascadeRequested):
            if event.activity is not None:
                bank.bump(
                    "conflicts_by_type", event.activity, len(event.victims)
                )
            bank.bump("cascades_by_type", event.activity or "<commit>")
        elif isinstance(event, ActivityClassified):
            bank.gauge(f"wcc/P{event.pid}", t, event.wcc)
        if self._sampler is not None:
            sample = self._sampler()
            if sample != self._sampled:
                self._sampled = sample
                for name, value in sample.items():
                    bank.gauge(name, t, value)

    def records(self) -> list[dict]:
        """All stamped events as flat record dictionaries."""
        return [flat_record(*triple) for triple in self.stamped]

    def __len__(self) -> int:
        return len(self.stamped)
