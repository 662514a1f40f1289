"""Focused tests for the manager's execution-gating machinery and
other internals (parked-request retries, busy-area accounting)."""

import pytest

from repro.core.protocol import ProcessLockManager
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ManagerConfig, ProcessManager
from repro.theory.criteria import is_prefix_reducible


def simple_env(registry, conflicts, n=2, gate=True, seed=0):
    program = ProgramBuilder("g", registry).step("reserve").build()
    protocol = ProcessLockManager(registry, conflicts)
    manager = ProcessManager(
        protocol,
        config=ManagerConfig(gate_conflicting_executions=gate),
        seed=seed,
    )
    for __ in range(n):
        manager.submit(program)
    return manager


class TestExecutionGating:
    def test_conflicting_executions_serialize(self, registry, conflicts):
        manager = simple_env(registry, conflicts, n=3)
        result = manager.run()
        # Three conflicting activities of duration 2.0 run back to back.
        assert result.makespan == pytest.approx(6.0)
        assert result.mean_concurrency == pytest.approx(1.0)

    def test_gating_disabled_overlaps(self, registry, conflicts):
        manager = simple_env(registry, conflicts, n=3, gate=False)
        result = manager.run()
        # Ungated: all three run concurrently (and commit in lock
        # order only by accident of equal durations).
        assert result.makespan == pytest.approx(2.0)

    def test_gating_is_conflict_scoped(self, registry, conflicts):
        prog_a = ProgramBuilder("a", registry).step("reserve").build()
        prog_b = ProgramBuilder("b", registry).step("ship").build()
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol)
        manager.submit(prog_a)
        manager.submit(prog_b)
        result = manager.run()
        # reserve (2.0) and ship (1.5) commute: fully parallel.
        assert result.makespan == pytest.approx(2.0)

    def test_gating_chain_order(self, registry, conflicts):
        manager = simple_env(registry, conflicts, n=3)
        result = manager.run()
        commits = [
            e.process[0]
            for e in result.trace.events
            if e.kind.value == "commit"
        ]
        assert commits == [1, 2, 3]

    def test_cancelled_blocker_releases_dependents(
        self, registry, conflicts
    ):
        """A victim's in-flight activity is cancelled; activities gated
        behind it must start rather than wait forever."""
        piv_prog = (
            ProgramBuilder("p", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
            .build()
        )
        flat = ProgramBuilder("f", registry).step("reserve").build()
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol, seed=1)
        manager.submit(piv_prog)
        manager.submit(flat)
        manager.submit(flat)
        result = manager.run()  # would hang on a gating leak
        assert result.stats.committed == 3

    def test_correctness_holds_under_gating(
        self, registry, conflicts, order_program
    ):
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol, seed=5)
        for __ in range(4):
            manager.submit(order_program)
        result = manager.run()
        schedule = result.trace.to_schedule(conflicts.conflict)
        assert is_prefix_reducible(schedule)


class TestBusyAccounting:
    def test_busy_area_matches_by_hand(self, registry, conflicts):
        # Two commuting activities of durations 2.0 and 1.5 starting at
        # t=0: busy area = 1.5*2 + 0.5*1 = 3.5.
        prog_a = ProgramBuilder("a", registry).step("reserve").build()
        prog_b = ProgramBuilder("b", registry).step("ship").build()
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol)
        manager.submit(prog_a)
        manager.submit(prog_b)
        result = manager.run()
        assert result.stats.busy_area == pytest.approx(3.5)

    def test_gated_time_is_not_busy(self, registry, conflicts):
        manager = simple_env(registry, conflicts, n=2)
        result = manager.run()
        # Total busy time is the sum of the two executions, no overlap.
        assert result.stats.busy_area == pytest.approx(4.0)


class TestParkedRetries:
    def test_waiters_wake_in_timestamp_order(self, registry, conflicts):
        """Three processes race for a pivot-guarded resource; the parked
        requests resolve oldest-first."""
        program = (
            ProgramBuilder("p", registry)
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
            .build()
        )
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol)
        for __ in range(3):
            manager.submit(program)
        result = manager.run()
        commits = [
            e.process[0]
            for e in result.trace.events
            if e.kind.value == "commit"
        ]
        assert commits == [1, 2, 3]
        assert result.stats.committed == 3
