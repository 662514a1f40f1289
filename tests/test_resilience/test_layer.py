"""ResilienceLayer: admission gating, adaptive Wcc*, crash re-binding."""

from __future__ import annotations

from types import SimpleNamespace

from repro.obs import Tracer
from repro.process.builder import ProgramBuilder
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    ResilienceConfig,
    ResilienceLayer,
)

CFG = ResilienceConfig(
    breaker=BreakerConfig(
        failure_threshold=2, cooldown=10.0, half_open_successes=1
    ),
    degraded_wcc_cap=15.0,
    admission_retry_delay=5.0,
    max_admission_defers=2,
)


class FakeEngine:
    def __init__(self) -> None:
        self.now = 0.0
        self.scheduled: list[tuple[float, object]] = []

    def schedule(self, delay, fn):
        self.scheduled.append((delay, fn))


class FakeManager:
    def __init__(self, tracer=None) -> None:
        self.engine = FakeEngine()
        self.protocol = SimpleNamespace(threshold_provider=None)
        self.tracer = tracer
        self.initiated: list[int] = []

    def _initiate(self, pid, program):
        self.initiated.append(pid)


def bound_layer(config=CFG, tracer=None):
    layer = ResilienceLayer(config)
    manager = FakeManager(tracer=tracer)
    layer.bind(manager)
    return layer, manager


def trip(layer, subsystem, times=2):
    for _ in range(times):
        layer.on_activity_outcome(subsystem, failed=True)


def fake_process(threshold):
    return SimpleNamespace(
        program=SimpleNamespace(wcc_threshold=threshold)
    )


class TestBinding:
    def test_bind_installs_the_threshold_provider(self):
        layer, manager = bound_layer()
        assert (
            manager.protocol.threshold_provider
            == layer.effective_threshold
        )


class TestAdmissionGating:
    def program(self):
        from repro.activities.registry import ActivityRegistry

        registry = ActivityRegistry()
        registry.define_compensatable("reserve", "shop", cost=2.0)
        registry.define_pivot("charge", "bank", cost=1.0)
        registry.define_retriable("ship", "shop", cost=1.5)
        return (
            ProgramBuilder("order", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
            .build()
        )

    def test_admits_when_everything_is_closed(self):
        layer, _ = bound_layer()
        assert layer.admission_delay(1, self.program()) is None
        assert layer.stats.admissions_deferred == 0

    def test_defers_when_a_needed_subsystem_is_open(self):
        layer, _ = bound_layer()
        trip(layer, "shop")
        delay = layer.admission_delay(1, self.program())
        assert delay == CFG.admission_retry_delay
        assert layer.stats.admissions_deferred == 1

    def test_unrelated_open_breaker_does_not_block(self):
        layer, _ = bound_layer()
        trip(layer, "warehouse")
        assert layer.admission_delay(1, self.program()) is None

    def test_readmits_after_cooldown(self):
        layer, manager = bound_layer()
        trip(layer, "shop")
        program = self.program()
        assert layer.admission_delay(1, program) is not None
        # Cooldown elapses; the next attempt pokes the breaker to
        # HALF_OPEN, which admits (probe traffic closes breakers).
        manager.engine.now = CFG.breaker.cooldown + 1.0
        assert layer.admission_delay(1, program) is None
        assert layer.stats.admissions_readmitted == 1
        assert (
            layer.health.breaker("shop").state
            is BreakerState.HALF_OPEN
        )

    def test_defer_budget_force_admits(self):
        layer, _ = bound_layer()
        trip(layer, "shop")
        program = self.program()
        # now stays 0, so the breaker never cools down.
        assert layer.admission_delay(1, program) is not None
        assert layer.admission_delay(1, program) is not None
        assert layer.admission_delay(1, program) is None
        assert layer.stats.admissions_forced == 1
        assert layer.stats.admissions_deferred == CFG.max_admission_defers

    def test_admission_events_are_traced(self):
        tracer = Tracer()
        layer, _ = bound_layer(tracer=tracer)
        trip(layer, "shop")
        program = self.program()
        layer.admission_delay(1, program)
        layer.admission_delay(1, program)
        layer.admission_delay(1, program)
        ops = [
            (record["pid"], record["op"], record["deferrals"])
            for record in tracer.records()
            if record["kind"] == "resilience.admission"
        ]
        assert ops == [(1, "defer", 1), (1, "defer", 2), (1, "force-admit", 3)]


class TestAdaptiveThreshold:
    def test_degrades_and_recovers(self):
        layer, manager = bound_layer()
        base = fake_process(30.0)
        assert layer.effective_threshold(base) == 30.0

        trip(layer, "shop")
        assert layer.stats.degradations == 1
        assert layer.effective_threshold(base) == CFG.degraded_wcc_cap
        # Infinite thresholds degrade too — the cap is a min, not a
        # multiplier.
        assert (
            layer.effective_threshold(fake_process(float("inf")))
            == CFG.degraded_wcc_cap
        )
        # A base already tighter than the cap is left alone.
        assert layer.effective_threshold(fake_process(3.0)) == 3.0

        # Cooldown elapses: HALF_OPEN still counts as degraded.
        manager.engine.now = CFG.breaker.cooldown + 1.0
        assert layer.effective_threshold(base) == CFG.degraded_wcc_cap
        # One probe success (half_open_successes=1) closes it.
        layer.on_activity_outcome("shop", failed=False)
        assert layer.effective_threshold(base) == 30.0
        assert layer.stats.recoveries == 1

    def test_transitions_and_degradation_are_traced(self):
        tracer = Tracer()
        layer, manager = bound_layer(tracer=tracer)
        trip(layer, "shop")
        manager.engine.now = CFG.breaker.cooldown + 1.0
        layer.on_activity_outcome("shop", failed=False)
        kinds = [record["kind"] for record in tracer.records()]
        assert kinds.count("resilience.breaker") == 3  # open, half, close
        flips = [
            (record["active"], record["reason"])
            for record in tracer.records()
            if record["kind"] == "resilience.degrade"
        ]
        assert flips == [
            (True, "breaker-open"),
            (False, "all-breakers-closed"),
        ]
        transition = next(
            record
            for record in tracer.records()
            if record["kind"] == "resilience.breaker"
        )
        assert transition["subsystem"] == "shop"
        assert (transition["from_state"], transition["to_state"]) == (
            "closed",
            "open",
        )


class TestCrashRebind:
    def test_pending_admissions_are_rescheduled(self):
        """A deferred admission is a pending pid of the manager's: it
        comes back with the crash image, and a cancelled one does not."""
        from repro.activities.commutativity import ConflictMatrix
        from repro.core.protocol import ProcessLockManager
        from repro.scheduler.manager import ManagerConfig, ProcessManager
        from repro.scheduler.recovery import crash, recover

        program = TestAdmissionGating().program()
        conflicts = ConflictMatrix(program.registry)
        layer = ResilienceLayer(CFG)
        config = ManagerConfig(resilience=layer)
        manager = ProcessManager(
            ProcessLockManager(program.registry, conflicts), config=config
        )
        trip(layer, "shop")
        kept, dropped = manager.submit(program), manager.submit(program)
        manager.engine.run_steps(2)  # both initiations: both deferred
        assert layer.stats.admissions_deferred == 2
        assert manager.undecided() == {kept: "pending", dropped: "pending"}
        assert manager.cancel(dropped)

        # The manager crashes: a fresh incarnation re-binds the layer.
        image = crash(manager)
        assert image.pending == [(kept, program, CFG.admission_retry_delay)]
        recovered = recover(
            image,
            ProcessLockManager(program.registry, conflicts),
            config=config,
        )
        assert recovered.undecided() == {kept: "pending"}
        result = recovered.run()
        assert result.records[kept].outcome == "committed"
        assert result.records[dropped].outcome == "cancelled"
        # The layer knew the pid across the crash: a re-admission, not
        # a first admission.
        assert layer.stats.admissions_readmitted == 1

    def test_rebind_rebases_open_cooldowns(self):
        layer, manager = bound_layer()
        manager.engine.now = 50.0
        trip(layer, "shop")
        assert layer.health.breaker("shop").opened_at == 50.0
        layer.bind(FakeManager())
        assert layer.health.breaker("shop").opened_at == 0.0
