"""The resilience layer: admission shedding + adaptive ``Wcc*``.

A :class:`ResilienceLayer` is attached to a manager via
``ManagerConfig(resilience=ResilienceLayer(...))``.  It closes the loop
between observed subsystem health (:mod:`repro.resilience.health`) and
the two levers the protocol already has:

* **admission gating** — a new process whose program needs an
  OPEN-breaker subsystem is *deferred*: its initiation is rescheduled
  ``admission_retry_delay`` of virtual time later, before any timestamp
  is drawn or lock is requested.  Running processes are never touched,
  so guaranteed termination is preserved; a bounded defer budget
  (``max_admission_defers``) force-admits stragglers so admission can
  never live-lock even if a subsystem stays down forever.  Half-open
  breakers admit — probe traffic is what closes a breaker again.
* **adaptive degradation** — while any breaker is open, the effective
  ``Wcc*`` of every classification is capped at ``degraded_wcc_cap``
  (see :func:`repro.core.cost_based.degraded_threshold`), inserting
  pseudo pivots earlier so in-flight processes cheapen their worst case;
  the cap lifts as soon as every breaker closes.

Every breaker transition, admission decision, and degradation flip is
emitted as a typed :mod:`repro.obs` event with its reason.  The layer is
deterministic: it draws no randomness and reads only the virtual clock.

One layer instance serves one *logical* run: a manager crash/recovery
re-binds the same layer to the recovered manager (breaker cooldowns
rebase to the restarted clock; deferred admissions are pending pids of
the manager's and come back with its crash image).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost_based import degraded_threshold
from repro.obs.events import (
    AdmissionGate,
    BackpressureEngaged,
    BreakerTransition,
    DegradationChanged,
)
from repro.resilience.health import (
    BreakerConfig,
    SubsystemHealth,
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables of one resilience layer."""

    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Effective ``Wcc*`` cap while any breaker is open.  Classification
    #: uses ``min(program threshold, cap)`` — a *cap*, not a multiplier,
    #: so programs with an infinite threshold degrade too.
    degraded_wcc_cap: float = 15.0
    #: Virtual-time delay before a shed admission is retried.
    admission_retry_delay: float = 5.0
    #: Defer budget per process before it is admitted regardless.
    max_admission_defers: int = 16
    #: Shard-queue backpressure cap: a new process is paused at the door
    #: while any shard it needs has this much live work queued
    #: (in-flight + parked).  ``None`` (the default) disables the gate
    #: entirely — runs stay byte-identical to the pre-backpressure
    #: behaviour.
    shard_queue_cap: int | None = None
    #: Cap multiplier for shards whose subsystem breaker is open: a
    #: degraded shard saturates earlier, shifting load away from it
    #: while it recovers.
    degraded_queue_factor: float = 0.5
    #: Virtual-time delay before a backpressured admission is retried.
    backpressure_retry_delay: float = 5.0
    #: Defer budget per process before backpressure force-admits it.
    max_backpressure_defers: int = 16


@dataclass
class ResilienceStats:
    """What the layer actually did during one logical run."""

    admissions_deferred: int = 0
    admissions_readmitted: int = 0
    admissions_forced: int = 0
    backpressure_deferred: int = 0
    backpressure_forced: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    degradations: int = 0
    recoveries: int = 0
    outage_hits: int = 0
    retry_exhaustions: int = 0
    slow_signals: int = 0


class ResilienceLayer:
    """Runtime fault response bound to one (logical) manager run."""

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.config = config or ResilienceConfig()
        self.health = SubsystemHealth(self.config.breaker)
        self.stats = ResilienceStats()
        self._manager = None
        self._degraded = False
        #: pid -> times its admission has been deferred so far.
        self._defers: dict[int, int] = {}
        #: pid -> times backpressure has paused its admission so far.
        self._bp_defers: dict[int, int] = {}
        #: id(program) -> subsystems its activities need (cached).
        self._needs_cache: dict[int, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, manager) -> None:
        """Attach to a manager (called from ``ProcessManager.__init__``).

        On re-bind after a crash the breaker cooldowns rebase to the
        recovered engine's restarted clock.
        """
        self._manager = manager
        self.health.rebase_clock()
        setattr(
            manager.protocol,
            "threshold_provider",
            self.effective_threshold,
        )

    @property
    def _now(self) -> float:
        return self._manager.engine.now if self._manager else 0.0

    # ------------------------------------------------------------------
    # health-signal hooks (called by manager and injector)
    # ------------------------------------------------------------------
    def on_activity_outcome(self, subsystem: str, failed: bool) -> None:
        """Outcome of a completed non-retriable activity."""
        now = self._now
        if failed:
            transitions = self.health.on_failure(
                subsystem, now, "failure"
            )
        else:
            transitions = self.health.on_success(subsystem, now)
        self._apply(subsystem, transitions)

    def on_outage_hit(self, subsystem: str) -> None:
        """An activity hit an injected outage window."""
        self.stats.outage_hits += 1
        self._apply(
            subsystem,
            self.health.on_failure(subsystem, self._now, "outage"),
        )

    def on_retry_exhausted(self, subsystem: str) -> None:
        """A retriable activity burned through its retry budget."""
        self.stats.retry_exhaustions += 1
        self._apply(
            subsystem,
            self.health.on_failure(
                subsystem, self._now, "retry-exhausted"
            ),
        )

    def on_latency(self, subsystem: str, extra: float) -> None:
        """Injected latency observed on one activity execution."""
        slow = self.config.breaker.slow_latency
        if slow is None or extra < slow:
            return
        self.stats.slow_signals += 1
        self._apply(
            subsystem,
            self.health.on_failure(subsystem, self._now, "slow"),
        )

    # ------------------------------------------------------------------
    # admission gating (called from ProcessManager._start)
    # ------------------------------------------------------------------
    def admission_delay(self, pid: int, program) -> float | None:
        """``None`` to admit ``pid`` now, else the defer delay.

        Sheds strictly before the first lock is granted: a deferred
        process has no timestamp, holds nothing, and blocks nobody.
        """
        now = self._now
        for subsystem, transition in self.health.poke_all(now):
            self._emit_transition(subsystem, transition)
        needed = self._subsystems_of(program)
        blocked = [
            name
            for name in needed
            if name in self.health.open_subsystems(now)
        ]
        if not blocked:
            count = self._defers.pop(pid, 0)
            if count:
                self.stats.admissions_readmitted += 1
                self._emit_admission(
                    pid, "readmit", tuple(blocked), count
                )
            return None
        count = self._defers.get(pid, 0) + 1
        if count > self.config.max_admission_defers:
            # Budget spent: admit anyway so a permanently dark
            # subsystem cannot starve admissions forever.
            self._defers.pop(pid, None)
            self.stats.admissions_forced += 1
            self._emit_admission(
                pid, "force-admit", tuple(blocked), count
            )
            return None
        self._defers[pid] = count
        self.stats.admissions_deferred += 1
        self._emit_admission(pid, "defer", tuple(blocked), count)
        return self.config.admission_retry_delay

    def backpressure_delay(
        self, pid: int, program, depth_of
    ) -> float | None:
        """``None`` to admit ``pid`` now, else the backpressure delay.

        Called by the manager *after* the breaker-driven admission gate
        passed; ``depth_of(subsystem)`` answers the live queue depth of
        one shard (in-flight + parked work).  A program needing a
        saturated shard is paused — with the cap halved (by
        ``degraded_queue_factor``) for shards whose subsystem breaker is
        open, so degraded shards shed load earlier.  Like the admission
        gate, a bounded defer budget force-admits stragglers, so
        backpressure can never live-lock admissions.
        """
        cap = self.config.shard_queue_cap
        if cap is None:
            return None
        now = self._now
        for subsystem, transition in self.health.poke_all(now):
            self._emit_transition(subsystem, transition)
        open_now = self.health.open_subsystems(now)
        saturated = []
        for name in self._subsystems_of(program):
            limit = cap
            if name in open_now:
                limit = max(
                    1, int(cap * self.config.degraded_queue_factor)
                )
            if depth_of(name) >= limit:
                saturated.append(name)
        if not saturated:
            self._bp_defers.pop(pid, None)
            return None
        count = self._bp_defers.get(pid, 0) + 1
        if count > self.config.max_backpressure_defers:
            self._bp_defers.pop(pid, None)
            self.stats.backpressure_forced += 1
            self._emit_backpressure(
                pid, "force-admit", tuple(saturated), count
            )
            return None
        self._bp_defers[pid] = count
        self.stats.backpressure_deferred += 1
        self._emit_backpressure(pid, "defer", tuple(saturated), count)
        return self.config.backpressure_retry_delay

    def _subsystems_of(self, program) -> tuple[str, ...]:
        key = id(program)
        needed = self._needs_cache.get(key)
        if needed is None:
            registry = program.registry
            needed = tuple(
                sorted(
                    {
                        registry.get(name).subsystem
                        for name in program.activity_names()
                    }
                )
            )
            self._needs_cache[key] = needed
        return needed

    # ------------------------------------------------------------------
    # adaptive Wcc* (installed as the protocol's threshold_provider)
    # ------------------------------------------------------------------
    def effective_threshold(self, process) -> float:
        """The ``Wcc*`` classification should use for ``process``."""
        base = process.program.wcc_threshold
        if self._degraded:
            # Let cooldowns fire even when no new failure signal
            # arrives — classification time is the relax opportunity.
            now = self._now
            for subsystem, transition in self.health.poke_all(now):
                self._emit_transition(subsystem, transition)
            self._refresh_degradation()
        if self._degraded:
            return degraded_threshold(
                base, self.config.degraded_wcc_cap
            )
        return base

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _apply(self, subsystem: str, transitions) -> None:
        for transition in transitions:
            self._emit_transition(subsystem, transition)
        if transitions:
            self._refresh_degradation()

    def _emit_transition(self, subsystem: str, transition) -> None:
        from_state, to_state, reason = transition
        if to_state == "open":
            self.stats.breaker_opens += 1
        elif to_state == "closed":
            self.stats.breaker_closes += 1
        tracer = self._manager.tracer if self._manager else None
        if tracer is not None and tracer.enabled:
            tracer.emit(
                BreakerTransition(
                    subsystem=subsystem,
                    from_state=from_state,
                    to_state=to_state,
                    reason=reason,
                    opens=self.health.breaker(subsystem).opens,
                )
            )

    def _refresh_degradation(self) -> None:
        # HALF_OPEN still counts as degraded: the subsystem has not
        # proven itself yet, so the tightened Wcc* stays on until the
        # probes close the breaker.
        degraded = self.health.degraded()
        if degraded == self._degraded:
            return
        self._degraded = degraded
        if degraded:
            self.stats.degradations += 1
            reason = "breaker-open"
        else:
            self.stats.recoveries += 1
            reason = "all-breakers-closed"
        tracer = self._manager.tracer if self._manager else None
        if tracer is not None and tracer.enabled:
            tracer.emit(
                DegradationChanged(
                    active=degraded,
                    cap=self.config.degraded_wcc_cap,
                    reason=reason,
                    open_subsystems=self.health.open_subsystems(
                        self._now
                    ),
                )
            )

    def _emit_admission(
        self,
        pid: int,
        op: str,
        subsystems: tuple[str, ...],
        deferrals: int,
    ) -> None:
        tracer = self._manager.tracer if self._manager else None
        if tracer is not None and tracer.enabled:
            tracer.emit(
                AdmissionGate(
                    pid=pid,
                    op=op,
                    subsystems=subsystems,
                    deferrals=deferrals,
                )
            )

    def _emit_backpressure(
        self,
        pid: int,
        op: str,
        subsystems: tuple[str, ...],
        deferrals: int,
    ) -> None:
        tracer = self._manager.tracer if self._manager else None
        if tracer is not None and tracer.enabled:
            tracer.emit(
                BackpressureEngaged(
                    pid=pid,
                    op=op,
                    subsystems=subsystems,
                    deferrals=deferrals,
                )
            )
