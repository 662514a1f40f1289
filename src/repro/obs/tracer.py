"""The recording tracer: every event of a run, stamped and kept.

Every instrumented layer emits each event unconditionally to the
manager's tracer, which is always the counting fold
(:class:`~repro.obs.metrics.MetricsTracer`, whose
:class:`~repro.obs.metrics.EventMetrics` *is* ``manager.stats``).  A
:class:`Tracer` is what a run that must be explained hands the manager
on top: the fold forwards it every event as a sink, and it stamps each
with the virtual time of the manager it is bound to plus a global
sequence number, feeds the series bank (histogram bumps from the event
stream, gauge samples from the bound sampler), and keeps everything in
memory until an exporter (:mod:`repro.obs.export`) writes it out.  A
run with or without one schedules byte-identically (the
zero-overhead tests and ``benchmarks/test_obs_overhead.py`` pin it).

Crash/recovery note: each manager incarnation restarts its virtual
clock at zero, so the fault injector advances :attr:`Tracer.offset` by
the crashed incarnation's final time — stamped times stay monotone
across the whole logical run.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.events import (
    ActivityClassified,
    CascadeRequested,
    LockDeferred,
    flat_record,
)
from repro.obs.series import SeriesBank


@dataclass(frozen=True, slots=True)
class Stamped:
    """One emitted event with its virtual-time/sequence stamp."""

    seq: int
    t: float
    event: object

    def to_record(self) -> dict:
        """Flat dictionary form (what the JSONL log stores per line)."""
        return flat_record(self.seq, self.t, self.event)


class Tracer:
    """Collects stamped events and series for one (logical) run."""

    def __init__(self) -> None:
        self.stamped: list[Stamped] = []
        self.series = SeriesBank()
        #: Added to every clock reading; bumped across manager
        #: incarnations by the fault injector.
        self.offset = 0.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._sampler: Callable[[], dict[str, float]] | None = None
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use ``clock()`` (the manager's virtual clock) for stamping."""
        self._clock = clock

    def bind_sampler(
        self, sampler: Callable[[], dict[str, float]]
    ) -> None:
        """Poll ``sampler()`` for gauge values on every emit."""
        self._sampler = sampler

    def refresh_gauges(self) -> None:
        """The drain-boundary hook of the tracer protocol; the series
        bank already holds a sample per emit."""

    @property
    def now(self) -> float:
        return self._clock() + self.offset

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def emit(self, event) -> None:
        """Stamp and store one event; update the series bank."""
        t = self.now
        self.stamped.append(Stamped(seq=next(self._seq), t=t, event=event))
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
            for name, value in self._sampler().items():
                bank.gauge(name, t, value)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """All stamped events as flat record dictionaries."""
        return [stamp.to_record() for stamp in self.stamped]

    def __len__(self) -> int:
        return len(self.stamped)
