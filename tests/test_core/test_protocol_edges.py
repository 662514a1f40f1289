"""Targeted tests for less-travelled protocol paths."""

import pytest

from repro.core.decisions import AbortVictims, Defer, Grant
from repro.core.locks import LockMode
from repro.core.protocol import ProcessLockManager
from repro.process.state import ProcessState
from tests.conftest import make_process


def mint(protocol, process, name, seq=90):
    from repro.activities.activity import Activity

    return Activity(protocol.registry.get(name), process.pid, seq=seq)


class TestCompletingVsPseudoPivot:
    def test_completing_defers_on_pseudo_holder(
        self, protocol, flat_program, order_program
    ):
        """Pseudo-pivot protection outranks the completing process."""
        pseudo_holder = make_process(protocol, flat_program, pid=1)
        completing = make_process(protocol, order_program, pid=2)
        # The older process protects itself with a pseudo-P lock.
        decision = protocol.request_activity_lock(
            pseudo_holder,
            mint(protocol, pseudo_holder, "reserve"),
            LockMode.P,
        )
        assert isinstance(decision, Grant)
        completing.state = ProcessState.COMPLETING
        outcome = protocol.request_activity_lock(
            completing, mint(protocol, completing, "reserve"),
            LockMode.C,
        )
        assert isinstance(outcome, Defer)
        assert outcome.reason == "completing-defers-on-pseudo"
        assert outcome.wait_for == frozenset({pseudo_holder.pid})

    def test_completing_still_wounds_c_holders(
        self, protocol, flat_program, order_program
    ):
        holder = make_process(protocol, flat_program, pid=1)
        completing = make_process(protocol, order_program, pid=2)
        protocol.request_activity_lock(
            holder, mint(protocol, holder, "reserve"), LockMode.C
        )
        completing.state = ProcessState.COMPLETING
        outcome = protocol.request_activity_lock(
            completing, mint(protocol, completing, "reserve"),
            LockMode.C,
        )
        assert isinstance(outcome, AbortVictims)
        assert outcome.victims == frozenset({holder.pid})


class TestScopedDefermentAblation:
    def test_scoped_mode_grants_non_conflicting_p(
        self, registry, conflicts, flat_program
    ):
        protocol = ProcessLockManager(
            registry, conflicts, global_p_deferment=False
        )
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        assert isinstance(
            protocol.request_activity_lock(
                first, mint(protocol, first, "reserve"), LockMode.P
            ),
            Grant,
        )
        # 'ship' commutes with 'reserve': scoped mode admits both P's.
        assert isinstance(
            protocol.request_activity_lock(
                second, mint(protocol, second, "ship"), LockMode.P
            ),
            Grant,
        )

    def test_global_mode_defers_even_non_conflicting_p(
        self, registry, conflicts, flat_program
    ):
        protocol = ProcessLockManager(registry, conflicts)
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        protocol.request_activity_lock(
            first, mint(protocol, first, "reserve"), LockMode.P
        )
        decision = protocol.request_activity_lock(
            second, mint(protocol, second, "ship"), LockMode.P
        )
        assert isinstance(decision, Defer)
        assert decision.reason == "other-p-holder"


class TestRecoveryGrants:
    def test_restore_grant_rebuilds_order_and_token(
        self, protocol, flat_program, order_program
    ):
        older = make_process(protocol, flat_program, pid=1)
        completing = make_process(protocol, order_program, pid=2)
        first = protocol.restore_grant(older, "reserve", LockMode.C, 11)
        second = protocol.restore_grant(
            completing, "reserve", LockMode.C, 12
        )
        assert first.position < second.position
        assert protocol.table.commit_blockers(completing) == {1}
        assert protocol._token_owner is None
        protocol.restore_grant(completing, "charge", LockMode.P, 13)
        assert protocol._token_owner == completing.pid

    def test_timestamp_floor(self, protocol):
        protocol.ensure_timestamp_floor(100)
        assert protocol.new_timestamp() == 101
        # Never goes backwards.
        protocol.ensure_timestamp_floor(5)
        assert protocol.new_timestamp() > 101


class TestWaitAborting:
    def test_compensation_waits_for_aborting_later_sharer(
        self, protocol, flat_program
    ):
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        reserved = older.launch("reserve")
        protocol.request_activity_lock(older, reserved, LockMode.C)
        older.on_committed(reserved)
        shared = younger.launch("reserve")
        protocol.request_activity_lock(younger, shared, LockMode.C)
        younger.abandon(shared)
        younger.begin_abort()  # the sharer is itself aborting
        failed = older.launch("wrap")
        plan = older.on_failed(failed)
        comp = older.make_compensation(plan.compensations[0])
        decision = protocol.request_compensation_lock(older, comp)
        assert isinstance(decision, Defer)
        assert decision.reason == "wait-aborting"
        assert decision.wait_for == frozenset({younger.pid})
