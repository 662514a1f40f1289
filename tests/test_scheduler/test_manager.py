"""Integration tests for the process manager (small scripted scenarios)."""

import math

import pytest

from repro.core.protocol import ProcessLockManager
from repro.errors import StarvationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivityFailures,
    FaultPlan,
    RetrySpec,
    compile_plan,
)
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ManagerConfig, ProcessManager
from repro.sim.workload import Workload, WorkloadSpec
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)


def run(protocol, programs, seed=0, config=None, subsystems=None):
    manager = ProcessManager(
        protocol,
        subsystems=subsystems,
        config=config,
        seed=seed,
    )
    for program in programs:
        manager.submit(program)
    return manager, manager.run()


class TestSingleProcess:
    def test_linear_commit(self, protocol, flat_program):
        __, result = run(protocol, [flat_program])
        assert result.stats.committed == 1
        assert result.makespan == pytest.approx(3.0)  # 2.0 + 1.0

    def test_pivot_path_commit(self, protocol, order_program):
        __, result = run(protocol, [order_program], seed=3)
        assert result.stats.committed == 1
        events = [str(e) for e in result.trace.events]
        assert events == [
            "reserve(P1)", "wrap(P1)", "charge(P1)", "ship(P1)", "C(P1)",
        ]

    def test_intrinsic_failure_compensates(self, registry, conflicts):
        # wrap always fails -> reserve must be compensated, process
        # aborts and is NOT resubmitted.
        registry2 = registry
        program = (
            ProgramBuilder("doomed", registry2)
            .step("reserve")
            .step("wrap")
            .build()
        )
        protocol = ProcessLockManager(registry2, conflicts)
        # Make wrap fail deterministically by seeding: wrap has p=0 in
        # the fixture, so craft a failing registry instead.
        from repro.activities.registry import ActivityRegistry
        from repro.activities.commutativity import ConflictMatrix

        reg = ActivityRegistry()
        reg.define_compensatable("reserve", "s", cost=2.0,
                                 compensation_cost=1.0)
        reg.define_compensatable("wrap", "s", cost=1.0,
                                 compensation_cost=0.5,
                                 failure_probability=0.999)
        con = ConflictMatrix(reg)
        con.close_perfect()
        program = (
            ProgramBuilder("doomed", reg)
            .step("reserve").step("wrap").build()
        )
        protocol = ProcessLockManager(reg, con)
        __, result = run(protocol, [program], seed=1)
        assert result.stats.intrinsic_aborts == 1
        assert result.stats.committed == 0
        assert result.stats.resubmissions == 0
        names = [e.name for e in result.trace.events if e.is_activity]
        assert names == ["reserve", "reserve^-1"]

    def test_alternative_taken_after_subprocess_failure(self):
        from repro.activities.registry import ActivityRegistry
        from repro.activities.commutativity import ConflictMatrix

        reg = ActivityRegistry()
        reg.define_pivot("pivot", "s", cost=1.0)
        reg.define_compensatable("flaky", "s", cost=1.0,
                                 compensation_cost=0.5,
                                 failure_probability=0.999)
        reg.define_retriable("safe", "s", cost=1.0)
        con = ConflictMatrix(reg)
        con.close_perfect()
        program = (
            ProgramBuilder("alt", reg)
            .pivot("pivot")
            .alternatives(
                lambda b: b.step("flaky"),
                lambda b: b.step("safe"),
            )
            .build()
        )
        protocol = ProcessLockManager(reg, con)
        __, result = run(protocol, [program], seed=2)
        assert result.stats.committed == 1
        assert result.stats.subprocess_aborts == 1
        names = [e.name for e in result.trace.events if e.is_activity]
        assert names == ["pivot", "safe"]

    def test_retriable_transient_retries(
        self, registry, conflicts, order_program
    ):
        # Transient retries come from a fault plan alone: 'ship' fails
        # transiently on every attempt until the budget of three lets
        # it through; rate_scale 0 keeps the other activities sound.
        plan = FaultPlan(
            name="flaky",
            failures=ActivityFailures(rate_scale=0.0, transient_prob=1.0),
            retry=RetrySpec(kind="fixed", max_attempts=3),
        )
        workload = Workload(
            spec=WorkloadSpec(n_processes=1),
            registry=registry,
            conflicts=conflicts,
            programs=[order_program],
        )
        chaos = FaultInjector(
            workload, "process-locking", compile_plan(plan, seed=5)
        ).run()
        assert chaos.result.stats.committed == 1
        assert chaos.result.stats.retries > 0
        assert chaos.result.stats.retries == 2


class TestTwoProcessInterleaving:
    def test_commuting_processes_run_fully_parallel(
        self, registry, conflicts
    ):
        prog_a = ProgramBuilder("a", registry).step("reserve").build()
        prog_b = ProgramBuilder("b", registry).step("ship").build()
        protocol = ProcessLockManager(registry, conflicts)
        __, result = run(protocol, [prog_a, prog_b])
        assert result.stats.committed == 2
        assert result.makespan == pytest.approx(2.0)  # max, not sum

    def test_conflicting_executions_are_gated(
        self, registry, conflicts
    ):
        program = ProgramBuilder("g", registry).step("reserve").build()
        protocol = ProcessLockManager(registry, conflicts)
        __, result = run(protocol, [program, program])
        assert result.stats.committed == 2
        # Ordered sharing admits both locks, but the conflicting
        # executions serialize: makespan is the sum of durations.
        assert result.makespan == pytest.approx(4.0)

    def test_commit_order_follows_sharing_order(
        self, registry, conflicts
    ):
        program = ProgramBuilder("g", registry).step("reserve").build()
        protocol = ProcessLockManager(registry, conflicts)
        __, result = run(protocol, [program, program])
        commits = [
            e.process[0]
            for e in result.trace.events
            if e.kind.value == "commit"
        ]
        assert commits == [1, 2]

    def test_pivot_conversion_cascades_younger_sharer(
        self, registry, conflicts, order_program, flat_program
    ):
        protocol = ProcessLockManager(registry, conflicts)
        __, result = run(protocol, [order_program, flat_program], seed=9)
        # P2 shared behind P1's reserve lock; P1's pivot conversion
        # aborts it; P2 is resubmitted and commits eventually.
        assert result.stats.committed == 2
        assert result.stats.resubmissions >= 1
        assert result.records[2].resubmissions >= 1

    def test_every_trace_is_ct_and_prc(
        self, registry, conflicts, order_program, flat_program
    ):
        protocol = ProcessLockManager(registry, conflicts)
        __, result = run(
            protocol, [order_program, flat_program, order_program],
            seed=4,
        )
        schedule = result.trace.to_schedule(conflicts.conflict)
        assert has_correct_termination(schedule)
        assert is_process_recoverable(schedule)


class TestLivenessGuards:
    def test_starvation_bound_enforced(self, registry, conflicts):
        program = ProgramBuilder("s", registry).step("reserve").build()
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(
            protocol,
            config=ManagerConfig(max_resubmissions=0),
        )
        # Two fully conflicting processes: the younger is cascaded once
        # (pivotless programs: via C-1 after an abort is not reachable
        # here, so force it with three conflicting processes and a
        # pivot program).
        prog_piv = (
            ProgramBuilder("p", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
            .build()
        )
        manager.submit(prog_piv)
        manager.submit(program)
        with pytest.raises(StarvationError):
            manager.run()

    def test_quiescence_check(self, protocol, flat_program):
        manager = ProcessManager(protocol)
        manager.submit(flat_program)
        # Sabotage: park a fake request so a process stays live.
        result = manager.run()
        assert result.stats.committed == 1


class TestArrivals:
    def test_staggered_arrivals(self, registry, conflicts):
        program = ProgramBuilder("g", registry).step("reserve").build()
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol)
        manager.submit(program, at=0.0)
        manager.submit(program, at=10.0)
        result = manager.run()
        assert result.stats.committed == 2
        assert result.records[2].submitted_at == 10.0
        assert result.records[2].latency == pytest.approx(2.0)

    def test_mean_concurrency_reflects_parallelism(
        self, registry, conflicts
    ):
        prog_a = ProgramBuilder("a", registry).step("reserve").build()
        prog_b = ProgramBuilder("b", registry).step("ship").build()
        protocol = ProcessLockManager(registry, conflicts)
        __, result = run(protocol, [prog_a, prog_b])
        assert result.mean_concurrency > 1.0
