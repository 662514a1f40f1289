"""Unit and behavioural tests for the baseline protocols."""

import pytest

from repro.baselines.aca import CascadeAvoidingScheduler
from repro.baselines.osl import PureOrderedSharedLocking
from repro.baselines.s2pl import StrictTwoPhaseLocking
from repro.baselines.serial import SerialScheduler
from repro.core.decisions import AbortVictims, Defer, Grant, SelfAbort
from repro.core.locks import LockMode
from repro.errors import ProtocolError
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ManagerConfig, ProcessManager
from tests.conftest import make_process


def mint(protocol, process, name, seq=90):
    from repro.activities.activity import Activity

    return Activity(protocol.registry.get(name), process.pid, seq=seq)


class TestSerialScheduler:
    def test_one_owner_at_a_time(self, registry, conflicts, flat_program):
        protocol = SerialScheduler(registry, conflicts)
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        a = mint(protocol, first, "reserve")
        assert isinstance(
            protocol.request_activity_lock(first, a, LockMode.C), Grant
        )
        b = mint(protocol, second, "ship")
        decision = protocol.request_activity_lock(second, b, LockMode.C)
        assert isinstance(decision, Defer)
        assert decision.wait_for == frozenset({1})

    def test_owner_released_on_detach(
        self, registry, conflicts, flat_program
    ):
        protocol = SerialScheduler(registry, conflicts)
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            first, mint(protocol, first, "reserve"), LockMode.C
        )
        protocol.detach(first)
        decision = protocol.request_activity_lock(
            second, mint(protocol, second, "reserve"), LockMode.C
        )
        assert isinstance(decision, Grant)

    def test_end_to_end_serial_run(self, registry, conflicts,
                                   flat_program):
        protocol = SerialScheduler(registry, conflicts)
        manager = ProcessManager(protocol, config=ManagerConfig(audit=True))
        manager.submit(flat_program)
        manager.submit(flat_program)
        result = manager.run()
        assert result.stats.committed == 2
        # Fully serial: makespan is the sum of both process durations.
        assert result.makespan == pytest.approx(6.0)


class TestS2PL:
    def test_exclusive_against_conflicts(
        self, registry, conflicts, flat_program
    ):
        protocol = StrictTwoPhaseLocking(registry, conflicts)
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            older, mint(protocol, older, "reserve"), LockMode.C
        )
        decision = protocol.request_activity_lock(
            younger, mint(protocol, younger, "reserve"), LockMode.C
        )
        # wound-wait: the younger requester waits for the older holder.
        assert isinstance(decision, Defer)

    def test_wound_wait_wounds_younger_holder(
        self, registry, conflicts, flat_program
    ):
        protocol = StrictTwoPhaseLocking(registry, conflicts)
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            younger, mint(protocol, younger, "reserve"), LockMode.C
        )
        decision = protocol.request_activity_lock(
            older, mint(protocol, older, "reserve"), LockMode.C
        )
        assert isinstance(decision, AbortVictims)
        assert decision.victims == frozenset({younger.pid})

    def test_wait_die_variant_dies(
        self, registry, conflicts, flat_program
    ):
        protocol = StrictTwoPhaseLocking(
            registry, conflicts, variant="wait-die"
        )
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            older, mint(protocol, older, "reserve"), LockMode.C
        )
        decision = protocol.request_activity_lock(
            younger, mint(protocol, younger, "reserve"), LockMode.C
        )
        assert isinstance(decision, SelfAbort)

    def test_unknown_variant_rejected(self, registry, conflicts):
        with pytest.raises(ProtocolError):
            StrictTwoPhaseLocking(registry, conflicts, variant="bogus")

    def test_non_conflicting_grants(self, registry, conflicts,
                                    flat_program):
        protocol = StrictTwoPhaseLocking(registry, conflicts)
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            first, mint(protocol, first, "reserve"), LockMode.C
        )
        decision = protocol.request_activity_lock(
            second, mint(protocol, second, "ship"), LockMode.C
        )
        assert isinstance(decision, Grant)

    def test_commit_always_granted(self, registry, conflicts,
                                   flat_program):
        protocol = StrictTwoPhaseLocking(registry, conflicts)
        process = make_process(protocol, flat_program, pid=1)
        assert isinstance(protocol.try_commit(process), Grant)

    def test_end_to_end(self, registry, conflicts, order_program,
                        flat_program):
        protocol = StrictTwoPhaseLocking(registry, conflicts)
        manager = ProcessManager(
            protocol, config=ManagerConfig(audit=True), seed=8
        )
        manager.submit(order_program)
        manager.submit(flat_program)
        result = manager.run()
        assert result.stats.committed == 2


class TestPureOsl:
    def test_everything_shares(self, registry, conflicts, flat_program):
        protocol = PureOrderedSharedLocking(registry, conflicts)
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        for process in (younger, older):  # even against ts order!
            decision = protocol.request_activity_lock(
                process, mint(protocol, process, "reserve"), LockMode.C
            )
            assert isinstance(decision, Grant)

    def test_relinquish_rule_defers_commit(
        self, registry, conflicts, flat_program
    ):
        protocol = PureOrderedSharedLocking(registry, conflicts)
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            older, mint(protocol, older, "reserve"), LockMode.C
        )
        protocol.request_activity_lock(
            younger, mint(protocol, younger, "reserve"), LockMode.C
        )
        decision = protocol.try_commit(younger)
        assert isinstance(decision, Defer)
        assert isinstance(protocol.try_commit(older), Grant)

    def test_compensation_cascades_later_sharers(
        self, registry, conflicts, flat_program
    ):
        protocol = PureOrderedSharedLocking(registry, conflicts)
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        reserved = first.launch("reserve")
        protocol.request_activity_lock(first, reserved, LockMode.C)
        first.on_committed(reserved)
        protocol.request_activity_lock(
            second, mint(protocol, second, "reserve"), LockMode.C
        )
        failed = first.launch("wrap")
        plan = first.on_failed(failed)
        comp = first.make_compensation(plan.compensations[0])
        decision = protocol.request_compensation_lock(first, comp)
        assert isinstance(decision, AbortVictims)
        assert decision.victims == frozenset({second.pid})

    def test_unresolvable_violation_counted(
        self, registry, conflicts, flat_program, order_program
    ):
        from repro.process.state import ProcessState

        protocol = PureOrderedSharedLocking(registry, conflicts)
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, order_program, pid=2)
        reserved = first.launch("reserve")
        protocol.request_activity_lock(first, reserved, LockMode.C)
        first.on_committed(reserved)
        protocol.request_activity_lock(
            second, mint(protocol, second, "reserve"), LockMode.C
        )
        second.state = ProcessState.COMPLETING  # passed its pivot
        failed = first.launch("wrap")
        plan = first.on_failed(failed)
        comp = first.make_compensation(plan.compensations[0])
        decision = protocol.request_compensation_lock(first, comp)
        # The completing sharer cannot be aborted: the violation is
        # reported (and so counted), the compensation proceeds.
        assert isinstance(decision, Grant)
        assert protocol.tracer.metrics.unresolvable == 1


class TestAca:
    def test_aca_is_rigorous_s2pl(self, registry, conflicts):
        """ACA degenerates to rigorousness at activity granularity."""
        protocol = CascadeAvoidingScheduler(registry, conflicts)
        assert isinstance(protocol, StrictTwoPhaseLocking)
        assert protocol.variant == "wound-wait"

    def test_never_shares_conflicting_locks(
        self, registry, conflicts, flat_program
    ):
        protocol = CascadeAvoidingScheduler(registry, conflicts)
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            older, mint(protocol, older, "reserve"), LockMode.C
        )
        decision = protocol.request_activity_lock(
            younger, mint(protocol, younger, "reserve"), LockMode.C
        )
        assert not isinstance(decision, Grant)

    def test_no_cascading_compensations(
        self, registry, conflicts, flat_program
    ):
        """No sharing means a compensation can never have victims."""
        protocol = CascadeAvoidingScheduler(registry, conflicts)
        manager = ProcessManager(
            protocol, config=ManagerConfig(audit=True), seed=3
        )
        for __ in range(3):
            manager.submit(flat_program)
        result = manager.run()
        assert result.stats.committed == 3
