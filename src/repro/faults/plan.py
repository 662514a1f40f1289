"""Declarative fault plans and their deterministic compilation.

A :class:`FaultPlan` describes *what* to break — activity failures
honoring each type's ``p(a)``, subsystem outages with a duration,
subsystem crashes, whole-manager crashes at chosen event
indices, injected latency — without saying anything about mechanism.
:func:`compile_plan` turns a plan plus a seed into a
:class:`FaultSchedule`: the event-indexed injections sorted into firing
order plus the seeded probabilistic layers, with a canonical byte-stable
serialization used by the determinism assertions of the chaos harness.

Nothing in this module touches a manager; the schedule is executed by
:class:`repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.errors import SchedulerError
from repro.sim.rng import derive_rng


@dataclass(frozen=True)
class ActivityFailures:
    """Deterministic activity-failure layer.

    Replaces the manager's own failure sampling with draws from a
    per-activity RNG derived from the schedule seed, so the failure
    pattern is a function of ``(plan, seed)`` alone — independent of
    event ordering.  Each non-retriable activity ``a`` fails with
    probability ``min(1, p(a) * rate_scale)``, honoring its declared
    ``p(a)``; retriable activities experience transient (retry-and-
    succeed) failures with probability ``transient_prob`` per attempt.
    """

    #: Multiplier applied to each activity type's ``p(a)``.
    rate_scale: float = 1.0
    #: Per-attempt transient-failure probability of retriable activities.
    transient_prob: float = 0.0
    #: Restrict injection to these subsystems (empty = all).
    subsystems: tuple[str, ...] = ()

    def applies_to(self, subsystem: str) -> bool:
        return not self.subsystems or subsystem in self.subsystems


@dataclass(frozen=True)
class SubsystemOutage:
    """A subsystem is unavailable for ``duration`` of virtual time.

    While down, non-retriable activities of the subsystem fail (and are
    resolved through compensation/alternatives as usual) and retriable
    activities retry until the outage lifts.
    """

    subsystem: str
    at_event: int
    duration: float


@dataclass(frozen=True)
class CorrelatedOutage:
    """One trigger downs a whole subsystem *group*.

    Models correlated multi-site failures (shared switch, rack power,
    common dependency): at the chosen event index every member of the
    group goes down for ``duration``.  ``stagger`` delays member ``i``'s
    window start by ``i * stagger`` of virtual time, modelling a failure
    *front* sweeping across the group rather than a single instant.
    """

    subsystems: tuple[str, ...]
    at_event: int
    duration: float
    stagger: float = 0.0


@dataclass(frozen=True)
class SubsystemCrash:
    """Crash a subsystem with a doomed transaction in flight.

    At the chosen event index a doomed transaction writes
    ``doomed_writes`` sentinel values, then the subsystem crashes; none
    of them may reach the store, which the harness asserts key by key.
    """

    subsystem: str
    at_event: int
    doomed_writes: int = 2


@dataclass(frozen=True)
class ManagerCrash:
    """Crash the whole process manager at a global event index.

    The injector journals the manager (:func:`repro.scheduler.recovery.
    crash`), rebuilds a fresh protocol instance, and resumes via
    :func:`repro.scheduler.recovery.recover`; the spliced trace is
    checked end to end.
    """

    at_event: int


@dataclass(frozen=True)
class InjectedLatency:
    """Extra virtual-time latency added to activity executions.

    ``extra`` is added to every matching activity's duration; ``jitter``
    adds a uniform ``[0, jitter)`` component drawn from a per-activity
    seeded RNG (deterministic, order-independent).
    """

    extra: float = 0.0
    jitter: float = 0.0
    #: Restrict to these subsystems (empty = all).
    subsystems: tuple[str, ...] = ()

    def applies_to(self, subsystem: str) -> bool:
        return not self.subsystems or subsystem in self.subsystems


@dataclass(frozen=True)
class RetrySpec:
    """Declarative retry/backoff policy (see :mod:`repro.faults.retry`)."""

    kind: str = "fixed"  # fixed | exponential | jittered
    base_delay: float = 1.0
    factor: float = 2.0
    max_delay: float = 32.0
    jitter: float = 0.0
    #: Total attempt budget per activity execution (first try included).
    max_attempts: int = 8


@dataclass(frozen=True)
class FaultPlan:
    """A named, declarative bundle of faults to inject into one run."""

    name: str
    failures: ActivityFailures | None = None
    outages: tuple[SubsystemOutage, ...] = ()
    correlated_outages: tuple[CorrelatedOutage, ...] = ()
    subsystem_crashes: tuple[SubsystemCrash, ...] = ()
    manager_crashes: tuple[ManagerCrash, ...] = ()
    latency: InjectedLatency | None = None
    retry: RetrySpec | None = None
    #: Optional declared event horizon of the run this plan targets.
    #: Purely a validation aid: injections indexed past it would never
    #: fire (they'd be silently dropped at drain time), so ``validate``
    #: rejects them up front.  ``None`` skips the check.
    horizon: int | None = None

    def validate(self) -> None:
        def err(message: str) -> SchedulerError:
            return SchedulerError(f"plan {self.name!r}: {message}")

        for outage in self.outages:
            if outage.duration <= 0:
                raise err(
                    f"outage duration must be > 0 "
                    f"(got {outage.duration!r} on "
                    f"{outage.subsystem!r})"
                )
        for group in self.correlated_outages:
            if not group.subsystems:
                raise err(
                    f"correlated outage at event {group.at_event} "
                    f"names no subsystems"
                )
            if len(set(group.subsystems)) != len(group.subsystems):
                raise err(
                    f"correlated outage at event {group.at_event} "
                    f"lists a subsystem twice: {group.subsystems!r}"
                )
            if group.duration <= 0:
                raise err(
                    f"correlated outage duration must be > 0 "
                    f"(got {group.duration!r})"
                )
            if group.stagger < 0:
                raise err(
                    f"correlated outage stagger must be >= 0 "
                    f"(got {group.stagger!r})"
                )
        # Two outage windows opening on the same subsystem at the same
        # event index are either a duplicate or an author error; merged
        # windows should be expressed as one longer window.
        seen: set[tuple[str, int]] = set()
        per_subsystem = [
            (outage.subsystem, outage.at_event)
            for outage in self.outages
        ] + [
            (name, group.at_event)
            for group in self.correlated_outages
            for name in group.subsystems
        ]
        for subsystem, at_event in per_subsystem:
            key = (subsystem, at_event)
            if key in seen:
                raise err(
                    f"overlapping outage windows on {subsystem!r} at "
                    f"event {at_event}: merge them into one window or "
                    f"move one to a different event index"
                )
            seen.add(key)
        if self.latency is not None:
            if self.latency.extra < 0:
                raise err(
                    f"injected latency extra must be >= 0 "
                    f"(got {self.latency.extra!r})"
                )
            if self.latency.jitter < 0:
                raise err(
                    f"injected latency jitter must be >= 0 "
                    f"(got {self.latency.jitter!r})"
                )
        for inj in self.event_indexed():
            if inj.at_event < 0:
                raise err(
                    f"negative event index {inj.at_event} on "
                    f"{type(inj).__name__}"
                )
        if self.horizon is not None:
            if self.horizon < 0:
                raise err(
                    f"horizon must be >= 0 (got {self.horizon!r})"
                )
            for inj in self.event_indexed():
                if inj.at_event > self.horizon:
                    raise err(
                        f"{type(inj).__name__} at event "
                        f"{inj.at_event} lies past the plan horizon "
                        f"({self.horizon}) and would never fire; move "
                        f"it inside the horizon or raise/drop "
                        f"`horizon`"
                    )

    def event_indexed(
        self,
    ) -> list[
        SubsystemOutage
        | CorrelatedOutage
        | SubsystemCrash
        | ManagerCrash
    ]:
        return [*self.outages, *self.correlated_outages,
                *self.subsystem_crashes, *self.manager_crashes]


#: Stable tags for the canonical serialization, one per injection type.
_KIND_TAGS = {
    SubsystemOutage: "outage",
    CorrelatedOutage: "correlated-outage",
    SubsystemCrash: "subsystem-crash",
    ManagerCrash: "manager-crash",
}


@dataclass(frozen=True)
class Injection:
    """One compiled, event-indexed injection, ready to fire."""

    at_event: int
    #: Tie-break among injections sharing an event index (plan order).
    order: int
    kind: str
    spec: object


@dataclass
class FaultSchedule:
    """A compiled plan: sorted injections + seeded probabilistic layers."""

    plan: FaultPlan
    seed: int
    injections: list[Injection] = field(default_factory=list)

    @property
    def failures(self) -> ActivityFailures | None:
        return self.plan.failures

    @property
    def latency(self) -> InjectedLatency | None:
        return self.plan.latency

    def stream(self, label: str):
        """A seeded RNG unique to ``(seed, plan, label)``.

        Deriving per-decision streams (rather than drawing from one
        sequential RNG) makes every injection decision independent of
        the order in which the injector happens to ask.
        """
        return derive_rng(self.seed, f"faults:{self.plan.name}:{label}")

    def canonical(self) -> str:
        """Byte-stable serialization for determinism assertions."""
        return json.dumps(
            {
                "plan": self.plan.name,
                "seed": self.seed,
                "failures": (
                    asdict(self.plan.failures)
                    if self.plan.failures
                    else None
                ),
                "latency": (
                    asdict(self.plan.latency)
                    if self.plan.latency
                    else None
                ),
                "retry": (
                    asdict(self.plan.retry) if self.plan.retry else None
                ),
                "horizon": self.plan.horizon,
                "injections": [
                    {
                        "at_event": inj.at_event,
                        "order": inj.order,
                        "kind": inj.kind,
                        "spec": asdict(inj.spec),
                    }
                    for inj in self.injections
                ],
            },
            separators=(",", ":"),
            sort_keys=True,
        )


def compile_plan(plan: FaultPlan, seed: int) -> FaultSchedule:
    """Compile ``plan`` into a deterministic injection schedule.

    Event-indexed injections are sorted by ``(at_event, plan order)``;
    the probabilistic layers keep their specs and draw from RNG streams
    derived from ``seed`` at injection time.  Compiling the same plan
    with the same seed always yields a byte-identical schedule
    (:meth:`FaultSchedule.canonical`).
    """
    plan.validate()
    injections = [
        Injection(
            at_event=spec.at_event,
            order=order,
            kind=_KIND_TAGS[type(spec)],
            spec=spec,
        )
        for order, spec in enumerate(plan.event_indexed())
    ]
    injections.sort(key=lambda inj: (inj.at_event, inj.order))
    return FaultSchedule(plan=plan, seed=seed, injections=injections)
