"""Deterministic fault injection into a process-manager run.

The :class:`FaultInjector` executes one compiled
:class:`~repro.faults.plan.FaultSchedule` against one workload/protocol
pair.  It owns the event loop: the simulation advances through
:meth:`SimulationEngine.run_steps` in chunks bounded by the next
event-indexed injection, so injections fire at exact global event
indices — stable across runs, which is what makes chaos runs
reproducible byte for byte.

Three injection channels exist:

* **decision hooks** — the manager consults the attached injector for
  activity outcomes (``should_fail`` / ``wants_retry``) and execution
  latency (``latency_for``); decisions are drawn from RNG streams
  derived per activity from the schedule seed, honoring each type's
  ``p(a)``;
* **event-indexed injections** — subsystem outages, subsystem crashes
  (a doomed transaction writes sentinels, the subsystem crashes, and
  none of them may reach the store), and
  whole-manager crash/recover cycles through
  :mod:`repro.scheduler.recovery`;
* **retry policy** — installed on a copy of the :class:`ManagerConfig`
  from the plan's :class:`~repro.faults.plan.RetrySpec`, bounding
  injected transient failures so termination stays guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.activities.activity import Activity
from repro.faults.plan import (
    CorrelatedOutage,
    FaultSchedule,
    Injection,
    ManagerCrash,
    SubsystemCrash,
    SubsystemOutage,
)
from repro.faults.retry import make_policy
from repro.obs.events import FaultInjected
from repro.obs.metrics import MetricsTracer
from repro.process.instance import Process
from repro.scheduler.manager import (
    ManagerConfig,
    ProcessManager,
    RunResult,
    make_manager,
)
from repro.scheduler.recovery import crash, recover
from repro.sim.runner import make_protocol
from repro.sim.workload import Workload

#: Events to advance per chunk when no injection is pending.
_CHUNK = 4096


@dataclass
class FaultCounters:
    """What the injector did that no event counts one to one.

    Everything else it did is one ``fault.inject`` event, counted by
    channel in the run's fold (``stats.faults``,
    ``repro_faults_total``).
    """

    #: Outage windows opened: one per plain outage, one per member of
    #: a correlated group (whose event is one per group).
    outages_started: int = 0
    #: Event-indexed injections that never fired (run drained first) or
    #: could not apply (e.g. manager crash under a protocol without
    #: recovery support, subsystem crash on an ungrounded workload).
    dropped_injections: int = 0


@dataclass(frozen=True)
class WalCheck:
    """Outcome of one subsystem crash."""

    subsystem: str
    at_event: int
    #: No doomed sentinel write reached the store.
    ok: bool


@dataclass
class ChaosRunResult:
    """One fault-injected run, across manager incarnations.

    ``result`` is the final incarnation's; its ``stats`` is the fold
    every incarnation emitted to, so it counts the whole run.
    """

    result: RunResult
    #: Virtual makespan summed across incarnations (each recovered
    #: manager restarts its clock at zero).
    makespan: float
    counters: FaultCounters
    #: Every post-crash trace continued its predecessor exactly.
    splice_ok: bool
    wal_checks: list[WalCheck] = field(default_factory=list)
    incarnations: int = 1
    #: Simulation events processed across every incarnation.
    events: int = 0


class FaultInjector:
    """Executes one fault schedule against one workload/protocol run."""

    def __init__(
        self,
        workload: Workload,
        protocol_name: str,
        schedule: FaultSchedule,
        config: ManagerConfig | None = None,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self.workload = workload
        self.protocol_name = protocol_name
        self.schedule = schedule
        self.seed = seed
        #: The fold every manager incarnation emits to (forwarding to
        #: ``tracer`` when given): it outlives each crash, so its counts
        #: cover the whole logical run, and its time offset is advanced
        #: on every crash so stamps stay monotone.
        self.tracer = MetricsTracer.over(tracer)
        self.config = self._configured(config)
        self.pool = workload.make_subsystems()
        self.counters = FaultCounters()
        self.wal_checks: list[WalCheck] = []
        self.splice_ok = True
        self._incarnation = 0
        #: Outage windows per subsystem as ``[start, end]`` pairs in
        #: the current incarnation's clock.  A list (not one merged end
        #: time) because staggered correlated outages may open a window
        #: that *starts in the future*; the subsystem is down only
        #: while ``start <= now < end``.
        self._outages: dict[str, list[list[float]]] = {}
        self._manager: ProcessManager | None = None

    def _configured(self, config: ManagerConfig | None) -> ManagerConfig:
        """The caller's config with the plan's retry policy installed —
        on a copy, so a config shared by several runs carries no plan's
        policy into the next."""
        config = config or ManagerConfig()
        if self.schedule.plan.retry is None:
            return config
        return replace(
            config,
            retry_policy=make_policy(
                self.schedule.plan.retry, seed=self.schedule.seed
            ),
        )

    # ------------------------------------------------------------------
    # decision hooks (called by the manager)
    # ------------------------------------------------------------------
    def _subsystem_down(self, activity: Activity) -> bool:
        windows = self._outages.get(activity.activity_type.subsystem)
        if not windows:
            return False
        assert self._manager is not None
        now = self._manager.engine.now
        return any(start <= now < end for start, end in windows)

    def _decision_stream(self, label, process: Process, activity):
        return self.schedule.stream(
            f"{label}:{process.pid}:{process.incarnation}:"
            f"{activity.seq}:{activity.name}"
        )

    def should_fail(
        self, process: Process, activity: Activity
    ) -> bool | None:
        """Outcome of a completed non-retriable activity.

        ``True``/``False`` replaces the manager's own sampling; ``None``
        falls through to it.  Failure probability honors the type's
        ``p(a)`` scaled by the plan, drawn from a per-activity stream.
        """
        if self._subsystem_down(activity):
            self._trace_fault(
                "failure", process, activity, via="outage"
            )
            return True
        spec = self.schedule.failures
        if spec is None or not spec.applies_to(
            activity.activity_type.subsystem
        ):
            return None
        probability = min(
            1.0,
            activity.activity_type.failure_probability * spec.rate_scale,
        )
        verdict = (
            self._decision_stream("fail", process, activity).random()
            < probability
        )
        if verdict:
            self._trace_fault("failure", process, activity)
        return verdict

    def wants_retry(
        self, process: Process, activity: Activity, attempts: int
    ) -> bool | None:
        """Whether a retriable completion fails transiently this attempt."""
        if self._subsystem_down(activity):
            self._trace_fault("retry", process, activity, via="outage")
            return True
        spec = self.schedule.failures
        if (
            spec is None
            or spec.transient_prob <= 0
            or not spec.applies_to(activity.activity_type.subsystem)
        ):
            return None
        stream = self._decision_stream(
            "retry", process, activity
        )
        # One stream per activity execution; skip to this attempt's draw
        # so the decision depends only on (activity, attempt).
        verdict = False
        for _ in range(attempts):
            verdict = stream.random() < spec.transient_prob
        if verdict:
            self._trace_fault("retry", process, activity)
        return verdict

    def latency_for(
        self, process: Process, activity: Activity
    ) -> float:
        """Extra virtual-time latency for one activity execution."""
        spec = self.schedule.latency
        if spec is None or not spec.applies_to(
            activity.activity_type.subsystem
        ):
            return 0.0
        extra = spec.extra
        if spec.jitter > 0:
            extra += self._decision_stream(
                "latency", process, activity
            ).uniform(0.0, spec.jitter)
        if extra > 0:
            self._trace_fault(
                "latency", process, activity, extra=extra
            )
        return extra

    def _trace_fault(
        self, channel: str, process: Process, activity: Activity,
        **detail,
    ) -> None:
        self.tracer.emit(
            FaultInjected(
                channel=channel,
                pid=process.pid,
                activity=activity.name,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self) -> ChaosRunResult:
        """Drive the workload to quiescence, firing every injection."""
        self._manager = self._fresh_manager()
        pending = list(self.schedule.injections)
        events_total = 0
        while True:
            if pending and pending[0].at_event <= events_total:
                self._fire(pending.pop(0))
                continue
            budget = (
                pending[0].at_event - events_total
                if pending
                else _CHUNK
            )
            fired = self._manager.engine.run_steps(min(budget, _CHUNK))
            events_total += fired
            if fired == 0:
                # Queue drained: injections past the end never fire.
                self.counters.dropped_injections += len(pending)
                break
        result = self._manager.run()
        return ChaosRunResult(
            result=result,
            # The offset is the crashed incarnations' summed clocks.
            makespan=self.tracer.offset + result.makespan,
            counters=self.counters,
            splice_ok=self.splice_ok,
            wal_checks=list(self.wal_checks),
            incarnations=self._incarnation + 1,
            events=events_total,
        )

    def _fresh_manager(self) -> ProcessManager:
        manager = make_manager(
            make_protocol(self.protocol_name, self.workload),
            subsystems=self.pool,
            config=self.config,
            seed=self.seed,
            tracer=self.tracer,
        )
        manager.injector = self
        for index, program in enumerate(self.workload.programs):
            manager.submit(
                program, at=self.workload.arrival_time(index)
            )
        return manager

    # ------------------------------------------------------------------
    # event-indexed injections
    # ------------------------------------------------------------------
    def _fire(self, injection: Injection) -> None:
        spec = injection.spec
        if isinstance(spec, SubsystemOutage):
            self._fire_outage(spec)
        elif isinstance(spec, CorrelatedOutage):
            self._fire_correlated(spec)
        elif isinstance(spec, SubsystemCrash):
            self._fire_subsystem_crash(spec, injection.at_event)
        elif isinstance(spec, ManagerCrash):
            self._fire_manager_crash()

    def _open_window(
        self, subsystem: str, start: float, end: float
    ) -> None:
        self._outages.setdefault(subsystem, []).append([start, end])
        if self.pool is not None and subsystem in self.pool:
            self.pool.get(subsystem).begin_outage(end)
        self.counters.outages_started += 1

    def _fire_outage(self, spec: SubsystemOutage) -> None:
        assert self._manager is not None
        now = self._manager.engine.now
        self._open_window(spec.subsystem, now, now + spec.duration)
        self.tracer.emit(
            FaultInjected(
                channel="outage",
                detail={
                    "subsystem": spec.subsystem,
                    "duration": spec.duration,
                },
            )
        )

    def _fire_correlated(self, spec: CorrelatedOutage) -> None:
        """Down every member of a subsystem group from one trigger.

        Member ``i``'s window opens ``i * stagger`` after the trigger,
        so a staggered group models a failure front; with ``stagger=0``
        the whole group drops at once.
        """
        assert self._manager is not None
        now = self._manager.engine.now
        for index, subsystem in enumerate(spec.subsystems):
            start = now + index * spec.stagger
            self._open_window(subsystem, start, start + spec.duration)
        self.tracer.emit(
            FaultInjected(
                channel="correlated-outage",
                detail={
                    "subsystems": list(spec.subsystems),
                    "duration": spec.duration,
                    "stagger": spec.stagger,
                },
            )
        )

    def _fire_subsystem_crash(
        self, spec: SubsystemCrash, at_event: int
    ) -> None:
        if self.pool is None or spec.subsystem not in self.pool:
            self.counters.dropped_injections += 1
            return
        subsystem = self.pool.get(spec.subsystem)
        # A doomed loser: sentinel writes that the crash strands
        # mid-flight.  None of them may reach the store.
        keys = [
            f"{spec.subsystem}:doomed{i}"
            for i in range(spec.doomed_writes)
        ]
        existing = sorted(subsystem.store.snapshot())
        keys[: len(existing)] = existing[: len(keys)]
        before = {key: subsystem.store.read(key) for key in keys}
        txn = subsystem.begin()
        for key in keys:
            txn.write(key, lambda _old: "__doomed__")
        subsystem.simulate_crash_and_recover()
        rolled_back = all(
            subsystem.store.read(key) == before[key] for key in keys
        )
        self.wal_checks.append(
            WalCheck(
                subsystem=spec.subsystem,
                at_event=at_event,
                ok=rolled_back,
            )
        )
        self.tracer.emit(
            FaultInjected(
                channel="subsystem-crash",
                detail={
                    "subsystem": spec.subsystem,
                    "at_event": at_event,
                    "rolled_back": rolled_back,
                },
            )
        )

    def _fire_manager_crash(self) -> None:
        assert self._manager is not None
        protocol = make_protocol(self.protocol_name, self.workload)
        if not hasattr(protocol, "restore_grant"):
            # Baseline protocols have no crash-recovery support; the
            # injection is recorded as dropped rather than failing the
            # run.
            self.counters.dropped_injections += 1
            return
        manager = self._manager
        prior_events = list(manager.trace.events)
        image = crash(manager)
        self._incarnation += 1
        self.tracer.emit(
            FaultInjected(
                channel="manager-crash",
                detail={
                    "crashed_at": image.crashed_at,
                    "incarnation": self._incarnation,
                },
            )
        )
        # Each incarnation restarts its virtual clock at zero; shifting
        # the tracer keeps stamps monotone end to end.
        self.tracer.offset += image.crashed_at
        recovered = recover(
            image,
            protocol,
            config=self.config,
            subsystems=self.pool,
            seed=self.seed + self._incarnation,
            tracer=self.tracer,
        )
        recovered.injector = self
        if recovered.trace.events[: len(prior_events)] != prior_events:
            self.splice_ok = False
        # Outage windows survive the crash with their remaining
        # duration (the recovered engine restarts at virtual time 0);
        # windows fully in the past are dropped.
        crashed_at = image.crashed_at
        self._outages = {
            name: shifted
            for name, windows in self._outages.items()
            if (
                shifted := [
                    [max(0.0, start - crashed_at), end - crashed_at]
                    for start, end in windows
                    if end - crashed_at > 0
                ]
            )
        }
        self.tracer.emit(
            FaultInjected(
                channel="manager-recover",
                detail={
                    "incarnation": self._incarnation,
                    "recovered": len(image.snapshots),
                    "splice_ok": self.splice_ok,
                },
            )
        )
        self._manager = recovered
