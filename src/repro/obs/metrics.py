"""The metrics plane: the one fold that counts the event stream.

Three pieces live here:

* :class:`MetricsRegistry` — a tiny, dependency-free registry of
  counters, gauges, and fixed-bucket histograms with stable label sets.
  The same event stream always produces the same registry contents and
  the same Prometheus text exposition byte-for-byte (families render in
  declaration order, children in sorted label order).
* :class:`EventMetrics` — the fold, and every manager's ``stats``: it
  maps every :mod:`repro.obs.events` dataclass onto metric families
  (process outcomes, lock grants/defers by rule, virtual-time lock-wait
  and park histograms, retries per activity, …), and the counts the
  ``stats`` verb, run summaries and the conservation oracle read
  (:data:`MANAGER_COUNTS`) are read off those same families, plus the
  compensated-cost and busy-area sums no family exports.
* :class:`MetricsTracer` — the always-on tracer every manager emits
  to, and the one place an event is stamped: it reads the clock, adds
  the crash offset and draws the sequence number, feeds its
  :class:`EventMetrics`, and hands ``(seq, t, event)`` to an optional
  :class:`~repro.obs.flight.FlightRecorder` and to any number of sinks
  (:class:`~repro.obs.tracer.Tracer`,
  :class:`~repro.server.bridge.BusTracer`).

Performance note: like :class:`~repro.obs.tracer.Tracer`, nothing on
the emit path flattens events through ``event_payload`` — the feeder
reads attributes directly and the flight recorder stores the event
object, flattening lazily at dump time.  The sampler-polled gauges are
not on the emit path either: whoever drives the engine calls
:meth:`MetricsTracer.refresh_gauges` at its drain boundaries.  The cost
of the fold alone, and of a recording sink on top, is pinned by
``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

from repro.obs.events import ParkTracker, record_to_event

__all__ = [
    "Counter",
    "EventMetrics",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MANAGER_COUNTS",
    "MetricsRegistry",
    "MetricsTracer",
    "RETRY_BUCKETS",
    "VT_WAIT_BUCKETS",
    "histogram_quantile",
    "replay_metrics",
]

#: Virtual-time buckets for lock-wait and park-duration histograms;
#: activity durations in the simulator are O(1)-O(10) virtual units.
VT_WAIT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)

#: Retries-per-activity buckets (a count, not a duration).
RETRY_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0)

#: Wall-clock submit-to-commit buckets (seconds) for the service.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: The counts ``manager.stats`` answers, in the ``stats`` verb's key
#: order.
MANAGER_COUNTS: tuple[str, ...] = (
    "submitted", "committed", "intrinsic_aborts", "protocol_aborts",
    "subprocess_aborts", "resubmissions", "starved", "compensations",
    "compensated_cost", "compensated_cost_protocol",
    "compensated_cost_intrinsic", "compensated_cost_subprocess",
    "retries", "deadlock_victims", "unresolvable_violations",
    "cancellations", "busy_area",
)

#: Abort causes that end in a resubmission (``protocol_aborts``); a
#: ``cancel`` abort ends the pid.
_PROTOCOL_CAUSES = (("cascade",), ("deadlock",), ("self",))

#: Cached verdict for sampler keys no gauge family consumes.
_IGNORED_SAMPLE = object()


def _fmt(value: float) -> str:
    """Prometheus sample value formatting (integers without the .0)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_int = int(value)
    if as_int == value:
        return str(as_int)
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Family:
    """Shared plumbing for one named metric family."""

    type_name = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = lock
        self._children: dict[tuple, object] = {}

    def _check_labels(self, labels: tuple) -> tuple:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {labels!r}"
            )
        return tuple(str(v) for v in labels)

    def _sorted_children(self) -> list[tuple[tuple, object]]:
        # ``list(d.items())`` copies in one step under the GIL: a
        # trusted-path writer may add a child meanwhile, unlocked.
        return sorted(list(self._children.items()))


class Counter(_Family):
    """Monotone counter family.

    Two ways in.  :meth:`inc` checks its labels and takes the registry
    lock, for a family more than one thread writes (the service's shed
    counter, written by whichever thread calls ``execute``).
    :meth:`bump` does neither: the event feeder's families have one
    writer, the thread that drives the engine, and readers on other
    threads copy the children before they look
    (:meth:`_sorted_children`).
    """

    type_name = "counter"

    def inc(self, labels: tuple = (), amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._check_labels(labels)
        with self._lock:
            self.bump(key, amount)

    def bump(self, key: tuple, amount: float = 1) -> None:
        """:meth:`inc` for a caller that vouches for its arguments:
        ``key`` is a tuple of ``str``, one per label name, ``amount``
        is not negative, and no other thread writes this family."""
        self._children[key] = self._children.get(key, 0) + amount

    def value(self, labels: tuple = ()) -> float:
        return self._children.get(self._check_labels(labels), 0)

    def total(self) -> float:
        """Sum over every child."""
        return sum(list(self._children.values()))


class Gauge(_Family):
    """Last-write-wins gauge family."""

    type_name = "gauge"

    def set(self, value: float, labels: tuple = ()) -> None:
        labels = self._check_labels(labels)
        with self._lock:
            self._children[labels] = value

    def value(self, labels: tuple = ()) -> float:
        labels = self._check_labels(labels)
        with self._lock:
            return self._children.get(labels, 0.0)


class _HistChild:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # last slot = +Inf overflow
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-bucket histogram family (cumulative at render time)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help_text, label_names, lock)
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"{name}: buckets must strictly increase")
        self.buckets = ordered

    def observe(self, value: float, labels: tuple = ()) -> None:
        key = self._check_labels(labels)
        with self._lock:
            self.record(key, value)

    def record(self, key: tuple, value: float) -> None:
        """:meth:`observe` for a caller that vouches for its arguments,
        as :meth:`Counter.bump` is for :meth:`Counter.inc`: ``key`` is
        a tuple of ``str``, one per label name, and no other thread
        writes this family."""
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistChild(len(self.buckets))
        # The first bound >= value; NaN, like anything past the last
        # bound, lands in the +Inf slot.
        buckets = self.buckets
        slot = (
            bisect_left(buckets, value) if value == value else len(buckets)
        )
        child.counts[slot] += 1
        child.total += value
        child.count += 1

    def cumulative(self, labels: tuple = ()) -> list[tuple[float, int]]:
        """``[(le, cumulative_count), ...]`` ending with ``+Inf``."""
        child = self._children.get(self._check_labels(labels))
        counts = (
            list(child.counts)
            if child is not None
            else [0] * (len(self.buckets) + 1)
        )
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out


class MetricsRegistry:
    """Declare-or-get registry with deterministic exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def _declare(self, cls, name: str, help_text: str, labels, **kwargs):
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or (
                    family.label_names != label_names
                ):
                    raise ValueError(
                        f"metric {name!r} re-declared with a different "
                        "type or label set"
                    )
                return family
            family = cls(name, help_text, label_names, self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Iterable[str] = (),
        buckets: Sequence[float] = VT_WAIT_BUCKETS,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump; same content as the text exposition."""
        families = []
        with self._lock:
            ordered = list(self._families.values())
        for family in ordered:
            entry: dict = {
                "name": family.name,
                "type": family.type_name,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": [],
            }
            if isinstance(family, Histogram):
                with self._lock:
                    children = family._sorted_children()
                for values, child in children:
                    running = 0
                    buckets = []
                    for bound, n in zip(family.buckets, child.counts):
                        running += n
                        buckets.append([_fmt(bound), running])
                    buckets.append(["+Inf", running + child.counts[-1]])
                    entry["samples"].append(
                        {
                            "labels": dict(
                                zip(family.label_names, values)
                            ),
                            "buckets": buckets,
                            "sum": child.total,
                            "count": child.count,
                        }
                    )
            else:
                with self._lock:
                    children = family._sorted_children()
                for values, value in children:
                    entry["samples"].append(
                        {
                            "labels": dict(
                                zip(family.label_names, values)
                            ),
                            "value": value,
                        }
                    )
            families.append(entry)
        return {"families": families}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4, rendered from
        :meth:`snapshot`'s walk of the families."""
        lines: list[str] = []
        for entry in self.snapshot()["families"]:
            name = entry["name"]
            label_names = tuple(entry["labels"])
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {entry['type']}")
            for sample in entry["samples"]:
                values = tuple(sample["labels"].values())
                if "buckets" not in sample:
                    labels = _label_str(label_names, values)
                    lines.append(f"{name}{labels} {_fmt(sample['value'])}")
                    continue
                le_names = label_names + ("le",)
                for bound, running in sample["buckets"]:
                    labels = _label_str(le_names, values + (bound,))
                    lines.append(f"{name}_bucket{labels} {running}")
                plain = _label_str(label_names, values)
                lines.append(f"{name}_sum{plain} {_fmt(sample['sum'])}")
                lines.append(f"{name}_count{plain} {sample['count']}")
        return "\n".join(lines) + "\n"


def histogram_quantile(
    cumulative: Sequence[tuple[float, float]], q: float
) -> float:
    """PromQL-style quantile from ``[(le, cumulative_count), ...]``.

    Linear interpolation inside the winning bucket; the lowest bucket
    interpolates from zero.  Returns ``nan`` on an empty histogram.
    """
    if not cumulative:
        return math.nan
    total = cumulative[-1][1]
    if total <= 0:
        return math.nan
    rank = q * total
    prev_bound = 0.0
    prev_count = 0.0
    for bound, count in cumulative:
        if count >= rank:
            if bound == math.inf:
                return prev_bound
            if count == prev_count:
                return bound
            frac = (rank - prev_count) / (count - prev_count)
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_count = bound, count
    return prev_bound


# ----------------------------------------------------------------------
# domain feeder
# ----------------------------------------------------------------------
class EventMetrics:
    """Folds the typed event stream into a :class:`MetricsRegistry`.

    One outcome is implied by two events: a client cancel of a
    *running* process emits ``process.cancel`` +
    ``process.abort-begin(cancel)`` + a terminal ``process.abort`` —
    so the fold remembers those pids and files the terminal abort under
    ``outcome="cancelled"`` instead of counting it again as an abort
    (``process.starved`` works the same way).  A cascade counts once
    per decision that begins an abort: ``lock.cascade`` marks a
    decision, and its first ``process.abort-begin(cascade)`` counts it.

    The fold outlives a manager crash under the fault injector, so its
    counts cover the whole logical run; after a served restart it is
    seeded once from the recovered image (:meth:`restore`).
    """

    def __init__(self) -> None:
        r = self.registry = MetricsRegistry()
        self.events = r.counter(
            "repro_events_total", "Emitted trace events by kind.", ("kind",)
        )
        self.submitted_total = r.counter(
            "repro_process_submitted_total",
            "Processes submitted to the manager.",
        )
        self.initiated = r.counter(
            "repro_process_initiated_total",
            "Processes past admission with a BOT timestamp drawn.",
        )
        self.outcomes = r.counter(
            "repro_process_outcomes_total",
            "Terminal process outcomes "
            "(committed/aborted/cancelled/starved).",
            ("outcome",),
        )
        self.aborts = r.counter(
            "repro_process_aborts_total",
            "Abort executions begun, by cause "
            "(cascade/deadlock/self/intrinsic/subprocess/cancel).",
            ("cause",),
        )
        self.resubmitted = r.counter(
            "repro_process_resubmitted_total",
            "Cascade victims restarted with their original timestamp.",
        )
        self.lock_grants = r.counter(
            "repro_lock_grants_total",
            "Lock grants by request class.",
            ("request",),
        )
        self.lock_defers = r.counter(
            "repro_lock_defers_total",
            "Lock defers by the paper rule that fired.",
            ("rule",),
        )
        self.self_aborts = r.counter(
            "repro_lock_self_aborts_total",
            "Requester-abort decisions (baseline protocols), by rule.",
            ("rule",),
        )
        self.cascades = r.counter(
            "repro_lock_cascades_total",
            "Cascade decisions that began at least one abort.",
        )
        self.cascade_victims_total = r.counter(
            "repro_cascade_victims_total",
            "Cascade-victim aborts begun.",
        )
        self.conversions = r.counter(
            "repro_lock_conversions_total",
            "Comp-to-Piv lock conversions.",
        )
        self.classified = r.counter(
            "repro_wcc_classified_total",
            "Figure-1 treatment decisions by granted mode.",
            ("mode",),
        )
        self.activities = r.counter(
            "repro_activities_total",
            "Activity executions by outcome "
            "(started/committed/failed/cancelled/compensated).",
            ("outcome",),
        )
        self.retries_total = r.counter(
            "repro_activity_retries_total",
            "Activity retry attempts.",
        )
        self.compensations_total = r.counter(
            "repro_compensations_total",
            "Compensation activities committed during aborts.",
        )
        self.parks = r.counter(
            "repro_parks_total",
            "Parked (deferred) requests by lock shard.",
            ("shard",),
        )
        self.deadlock_victims_total = r.counter(
            "repro_deadlock_victims_total",
            "Processes aborted to break a wait-for cycle.",
        )
        self.deadlock_forced = r.counter(
            "repro_deadlock_forced_total",
            "Forced progress through unresolvable cycles (baselines).",
        )
        self.faults = r.counter(
            "repro_faults_total",
            "Fault-injector actions by channel.",
            ("channel",),
        )
        self.retry_budget = r.counter(
            "repro_retry_budget_exhausted_total",
            "Retry budgets exhausted, by subsystem.",
            ("subsystem",),
        )
        self.parked_gauge = r.gauge(
            "repro_parked", "Requests currently parked."
        )
        self.inflight_gauge = r.gauge(
            "repro_inflight", "Activities currently executing."
        )
        self.live_gauge = r.gauge(
            "repro_live_processes", "Processes currently live."
        )
        self.held_gauge = r.gauge(
            "repro_processes_held",
            "Cascade victims held at the restart gate behind an older "
            "process.",
        )
        self.locks_gauge = r.gauge(
            "repro_locks_total", "Lock entries currently on the table."
        )
        self.locks_by_shard = r.gauge(
            "repro_locks_held",
            "Lock entries currently held, by shard.",
            ("shard",),
        )
        self.lock_wait = r.histogram(
            "repro_lock_wait_vt",
            "Virtual time from first defer to grant, by request class.",
            ("request",),
            buckets=VT_WAIT_BUCKETS,
        )
        self.park_duration = r.histogram(
            "repro_park_duration_vt",
            "Virtual time a parked request spent blocked, by shard.",
            ("shard",),
            buckets=VT_WAIT_BUCKETS,
        )
        self.retries_per_activity = r.histogram(
            "repro_retries_per_activity",
            "Retry attempts per completed activity execution.",
            buckets=RETRY_BUCKETS,
        )
        self.submit_to_commit = r.histogram(
            "repro_submit_to_commit_seconds",
            "Wall-clock submit-to-terminal latency (service only).",
            ("outcome",),
            buckets=LATENCY_BUCKETS,
        )
        #: Sums no family exports: cost undone by compensations, by the
        #: channel that ran them, and the time integral of the number
        #: of activities executing.
        self.compensated_cost = 0.0
        self.compensated_cost_protocol = 0.0
        self.compensated_cost_intrinsic = 0.0
        self.compensated_cost_subprocess = 0.0
        self.busy_area = 0.0
        # Pairing state for derived observations.
        #: uids of the activities executing, and when that set last
        #: changed (the busy area is integrated from there).
        self._running: set[int] = set()
        self._running_since = 0.0
        self._gauge_targets: dict[str, tuple | object] = {}
        #: event class -> (its ``repro_events_total`` key, its handler).
        self._by_class: dict[type, tuple] = {}
        #: The open parks, read off the decisions (the park rule).
        self._parks = ParkTracker(self._park_ended)
        self._retry_counts: dict[int, int] = {}
        self._filed: set[int] = set()
        #: A ``lock.cascade`` decision whose first abort has not begun.
        self._cascade_pending = False
        self._handlers: dict[str, Callable[[float, object], None]] = {
            "process.submit": self._on_submit,
            "process.init": self._on_init,
            "process.commit": self._on_commit,
            "process.abort-begin": self._on_abort_begin,
            "process.abort": self._on_abort,
            "process.cancel": self._on_cancel,
            "process.starved": self._on_starved,
            "process.resubmit": self._on_resubmit,
            "lock.grant": self._on_grant,
            "lock.defer": self._on_defer,
            "lock.cascade": self._on_cascade,
            "lock.self-abort": self._on_self_abort,
            "lock.convert": self._on_convert,
            "wcc.classify": self._on_classify,
            "activity.start": self._on_activity_start,
            "activity.retry": self._on_activity_retry,
            "activity.commit": self._on_activity_commit,
            "activity.fail": self._on_activity_fail,
            "activity.cancel": self._on_activity_cancel,
            "deadlock.victim": self._on_deadlock_victim,
            "deadlock.forced": self._on_deadlock_forced,
            "fault.inject": self._on_fault,
            "retry.budget_exhausted": self._on_retry_budget,
        }

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def observe(self, t: float, event) -> None:
        # Keyed by the event's class: ``type()`` is one cheap call where
        # ``event.kind``, read off a score of classes, is not.
        cls = type(event)
        try:
            key, handler = self._by_class[cls]
        except KeyError:
            key, handler = self._by_class[cls] = (
                (cls.kind,),
                self._handlers.get(cls.kind),
            )
        counts = self.events._children  # Counter.bump, inlined: hot
        counts[key] = counts.get(key, 0) + 1
        if handler is not None:
            handler(t, event)

    def sample_gauges(self, samples: dict[str, float]) -> None:
        """Consume one sampler poll (same dict the Tracer gauges get).

        The first poll resolves each sample key to a ``(child-map,
        label-key)`` write target; later polls write straight to the
        children under the registry lock.
        """
        targets = self._gauge_targets
        with self.registry._lock:
            for name, value in samples.items():
                target = targets.get(name)
                if target is None:
                    target = targets[name] = self._resolve_gauge(name)
                if target is _IGNORED_SAMPLE:
                    continue
                children, key = target
                children[key] = value

    def _resolve_gauge(self, name: str):
        """Map one sampler key onto its gauge child slot (or ignore)."""
        if name == "parked":
            return self.parked_gauge._children, ()
        if name == "inflight":
            return self.inflight_gauge._children, ()
        if name == "live":
            return self.live_gauge._children, ()
        if name == "held":
            return self.held_gauge._children, ()
        if name == "locks":
            return self.locks_gauge._children, ()
        if name.startswith("locks."):
            return self.locks_by_shard._children, (name[6:],)
        return _IGNORED_SAMPLE

    def observe_latency(self, seconds: float, outcome: str) -> None:
        """Service hook: one wall-clock submit-to-terminal sample."""
        self.submit_to_commit.observe(seconds, (outcome,))

    def restore(
        self, records: Iterable = (), cancelling: Iterable[int] = ()
    ) -> None:
        """Seed a fresh fold with the history a restart recovered.

        Every pid of ``records`` (the recovered manager's records)
        counts as submitted, every decided one under its outcome.  A
        ``cancelling`` pid was cancelled mid-abort before the crash: it
        counts as cancelled now, and its terminal abort is filed there.
        """
        for record in records:
            self.submitted_total.bump(())
            if record.outcome is not None:
                self.outcomes.bump((record.outcome,))
        for pid in cancelling:
            self.outcomes.bump(("cancelled",))
            self._filed.add(pid)

    # ------------------------------------------------------------------
    # the run's counts (``manager.stats``; :data:`MANAGER_COUNTS`)
    # ------------------------------------------------------------------
    submitted = property(lambda self: self.submitted_total.total())
    committed = property(lambda self: self.outcomes.value(("committed",)))
    cancellations = property(
        lambda self: self.outcomes.value(("cancelled",))
    )
    starved = property(lambda self: self.outcomes.value(("starved",)))
    protocol_aborts = property(
        lambda self: sum(map(self.aborts.value, _PROTOCOL_CAUSES))
    )
    intrinsic_aborts = property(
        lambda self: self.aborts.value(("intrinsic",))
    )
    subprocess_aborts = property(
        lambda self: self.aborts.value(("subprocess",))
    )
    resubmissions = property(lambda self: self.resubmitted.total())
    compensations = property(lambda self: self.compensations_total.total())
    retries = property(lambda self: self.retries_total.total())
    deadlock_victims = property(
        lambda self: self.deadlock_victims_total.total()
    )
    #: Wait cycles forced through (the baselines' ``deadlock.forced``).
    unresolvable_violations = property(
        lambda self: self.deadlock_forced.total()
    )
    # Read by run summaries only: cascades that reached a completing
    # holder (pure OSL), defers and cascade victims.
    unresolvable = property(
        lambda self: self.events.value(("lock.unresolvable",))
    )
    defers = property(lambda self: self.lock_defers.total())
    cascade_victims = property(
        lambda self: self.cascade_victims_total.total()
    )
    #: Activities executing now (started, not yet ended): the
    #: ``inflight`` gauge.
    inflight = property(lambda self: len(self._running))

    # ------------------------------------------------------------------
    # per-kind handlers
    # ------------------------------------------------------------------
    def _on_submit(self, t, event) -> None:
        self.submitted_total.bump(())

    def _on_init(self, t, event) -> None:
        self.initiated.bump(())

    def _on_commit(self, t, event) -> None:
        self.outcomes.bump(("committed",))
        self._parks.observe(t, event)

    def _on_abort_begin(self, t, event) -> None:
        self.aborts.bump((event.cause,))
        # Its parked requests die with the incarnation; a successor
        # that asks again waits from its own defer.
        self._parks.observe(t, event)
        if event.cause == "cascade":
            # A victim counts where its abort begins, a cascade once
            # per decision that begins one.
            self.cascade_victims_total.bump(())
            if self._cascade_pending:
                self._cascade_pending = False
                self.cascades.bump(())

    def _on_abort(self, t, event) -> None:
        self._parks.observe(t, event)
        if event.resubmit:
            return
        if event.pid in self._filed:
            self._filed.discard(event.pid)
            return
        self.outcomes.bump(("aborted",))

    def _on_cancel(self, t, event) -> None:
        self.outcomes.bump(("cancelled",))
        if event.initiated:
            self._filed.add(event.pid)

    def _on_starved(self, t, event) -> None:
        self.outcomes.bump(("starved",))
        self._filed.add(event.pid)

    def _on_resubmit(self, t, event) -> None:
        self.resubmitted.bump(())

    def _on_grant(self, t, event) -> None:
        self.lock_grants.bump((event.request,))
        self._parks.observe(t, event)

    def _on_defer(self, t, event) -> None:
        self.lock_defers.bump((event.rule,))
        self._park_started(self._parks.observe(t, event))

    def _on_cascade(self, t, event) -> None:
        self._cascade_pending = True
        self._park_started(self._parks.observe(t, event))

    def _park_started(self, park) -> None:
        self.parks.bump((park.shard if park.shard is not None else "none",))

    def _park_ended(self, park, event) -> None:
        shard = park.shard if park.shard is not None else "none"
        self.park_duration.record((shard,), park.end - park.start)
        if park.deferred_at is not None and event.kind == "lock.grant":
            self.lock_wait.record(
                (park.request,), park.end - park.deferred_at
            )

    def _on_self_abort(self, t, event) -> None:
        self.self_aborts.bump((event.rule,))
        self._parks.observe(t, event)

    def _on_convert(self, t, event) -> None:
        self.conversions.bump(())

    def _on_classify(self, t, event) -> None:
        self.classified.bump((event.mode,))

    def _on_activity_start(self, t, event) -> None:
        self.activities.bump(("started",))
        self._busy_until(t)
        self._running.add(event.uid)

    def _busy_until(self, t: float) -> None:
        """Integrate the number of executing activities up to ``t``."""
        self.busy_area += len(self._running) * (t - self._running_since)
        self._running_since = t

    def _on_activity_retry(self, t, event) -> None:
        self.retries_total.bump(())
        self._retry_counts[event.uid] = (
            self._retry_counts.get(event.uid, 0) + 1
        )

    def _on_activity_commit(self, t, event) -> None:
        self._busy_until(t)
        self._running.discard(event.uid)
        if event.compensation:
            self.compensations_total.bump(())
            self.activities.bump(("compensated",))
            undone = event.undone
            if undone is not None:  # None: a record written before it
                self.compensated_cost += undone
                cause = event.cause
                if cause.startswith("protocol-abort"):
                    self.compensated_cost_protocol += undone
                elif cause == "intrinsic-abort":
                    self.compensated_cost_intrinsic += undone
                else:
                    self.compensated_cost_subprocess += undone
        else:
            self.activities.bump(("committed",))
        self.retries_per_activity.record(
            (), self._retry_counts.pop(event.uid, 0)
        )

    def _on_activity_fail(self, t, event) -> None:
        self._busy_until(t)
        self._running.discard(event.uid)
        self.activities.bump(("failed",))
        self._parks.observe(t, event)

    def _on_activity_cancel(self, t, event) -> None:
        if event.uid in self._running:
            self._busy_until(t)
            self._running.discard(event.uid)
        self.activities.bump(("cancelled",))
        self.retries_per_activity.record(
            (), self._retry_counts.pop(event.uid, 0)
        )

    def _on_deadlock_victim(self, t, event) -> None:
        self.deadlock_victims_total.bump(())

    def _on_deadlock_forced(self, t, event) -> None:
        self.deadlock_forced.bump(())

    def _on_fault(self, t, event) -> None:
        self.faults.bump((event.channel,))
        if event.channel == "manager-crash":
            # The crashed incarnation's executions and parks end with it.
            self._busy_until(t)
            self._running.clear()
            self._parks.observe(t, event)

    def _on_retry_budget(self, t, event) -> None:
        subsystem = (
            event.subsystem if event.subsystem is not None else "none"
        )
        self.retry_budget.bump((subsystem,))


# ----------------------------------------------------------------------
# tee tracer
# ----------------------------------------------------------------------
class MetricsTracer:
    """The tracer every manager emits to: it stamps each event, folds
    it into its :class:`EventMetrics` and hands ``(seq, t, event)`` to
    the flight ring and the sinks.

    Nothing past the fold keeps a clock, an offset or a counter, so the
    ring and every sink see one stamp per event.  :attr:`offset` is
    added to every clock reading: each manager incarnation restarts its
    virtual clock at zero, so the fault injector and a store's recovery
    advance it by the crashed incarnation's final time, and stamped
    times stay monotone across the whole logical run.
    """

    @classmethod
    def over(cls, tracer=None) -> "MetricsTracer":
        """The fold to count with: ``tracer`` itself when it is one,
        else a fresh one with ``tracer`` (when given) as its sink."""
        if isinstance(tracer, cls):
            return tracer
        return cls(sinks=() if tracer is None else (tracer,))

    def __init__(self, sinks: Sequence = (), recorder=None) -> None:
        self.sinks = tuple(sinks)
        self.recorder = recorder
        #: Whether an event goes anywhere past the fold.
        self._tee = bool(self.sinks) or recorder is not None
        self.offset = 0.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._sampler: Callable[[], dict[str, float]] | None = None
        self._seq = itertools.count()

    @cached_property
    def metrics(self) -> EventMetrics:
        # Built on first use: a protocol's own tracer, which its manager
        # replaces, never builds one.
        return EventMetrics()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def bind_sampler(
        self, sampler: Callable[[], dict[str, float]] | None
    ) -> None:
        # The registry's gauges are read at scrape time, so the tee
        # polls at drain boundaries (refresh_gauges), never per emit.
        # A sink that banks a series point per emit (a Tracer) gets the
        # sampler itself; no other sink takes one.
        self._sampler = sampler
        for sink in self.sinks:
            if hasattr(sink, "bind_sampler"):
                sink.bind_sampler(sampler)

    def refresh_gauges(self) -> None:
        """Poll the sampler into the registry's gauges.

        Called by whoever drives the engine when a drain ends, on the
        thread that owns the manager (the sampler reads its tables):
        the service after every drain, ``ProcessManager.run`` once at
        the end.
        """
        sampler = self._sampler
        if sampler is not None:
            self.metrics.sample_gauges(sampler())

    def emit(self, event) -> None:
        t = self._clock() + self.offset
        self.metrics.observe(t, event)
        if self._tee:
            seq = next(self._seq)
            recorder = self.recorder
            if recorder is not None:
                recorder.append(seq, t, event)
            for sink in self.sinks:
                sink.emit(seq, t, event)


def replay_metrics(records: Iterable[dict]) -> EventMetrics:
    """Rebuild an :class:`EventMetrics` from exported JSONL records.

    The registry produced here matches the one a live
    :class:`MetricsTracer` built from the same stream (sampler-polled
    gauges excepted — records carry no gauge samples, so those replay
    from the gauge series only if present, i.e. not at all).
    """
    metrics = EventMetrics()
    for record in records:
        event = record_to_event(record)
        metrics.observe(record["t"], event)
    return metrics
