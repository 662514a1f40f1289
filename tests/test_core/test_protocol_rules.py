"""Unit tests for the six process-locking rules (Section 3.2.3).

Each test drives the protocol directly (no simulation engine) through a
minimal scenario and asserts the exact decision the rule prescribes.
"""

import pytest

from repro.core.decisions import AbortVictims, Defer, Grant
from repro.core.locks import LockMode
from repro.core.protocol import ProcessLockManager
from repro.errors import ProtocolError
from repro.process.state import ProcessState
from tests.conftest import make_process


def launch(process, name):
    return process.launch(name)


def mint(protocol, process, name, seq=90):
    """Mint an activity invocation directly (bypassing program order).

    Unit tests for individual rules need locks on arbitrary types
    without walking a whole program; the protocol only looks at the
    activity's type and uid.
    """
    from repro.activities.activity import Activity

    return Activity(protocol.registry.get(name), process.pid, seq=seq)


def grant_c(protocol, process, name):
    activity = launch(process, name)
    decision = protocol.request_activity_lock(
        process, activity, LockMode.C
    )
    assert isinstance(decision, Grant), decision
    return activity


@pytest.fixture
def env(protocol, flat_program, order_program):
    older = make_process(protocol, flat_program, pid=1)
    younger = make_process(protocol, flat_program, pid=2)
    return protocol, older, younger


class TestCompRule:
    def test_grant_with_no_conflicts(self, env):
        protocol, older, __ = env
        grant_c(protocol, older, "reserve")

    def test_ordered_sharing_behind_older(self, env):
        protocol, older, younger = env
        grant_c(protocol, older, "reserve")
        grant_c(protocol, younger, "reserve")
        assert protocol.table.on_hold(younger)

    def test_younger_running_c_holder_is_aborted(self, env):
        protocol, older, younger = env
        grant_c(protocol, younger, "reserve")
        activity = launch(older, "reserve")
        decision = protocol.request_activity_lock(
            older, activity, LockMode.C
        )
        assert isinstance(decision, AbortVictims)
        assert decision.victims == frozenset({younger.pid})

    def test_younger_aborting_holder_is_waited_for(self, env):
        protocol, older, younger = env
        grant_c(protocol, younger, "reserve")
        younger.abandon_all = None  # readability only
        younger.begin_abort()
        activity = launch(older, "reserve")
        decision = protocol.request_activity_lock(
            older, activity, LockMode.C
        )
        assert isinstance(decision, Defer)
        assert decision.reason == "wait-aborting"
        assert decision.wait_for == frozenset({younger.pid})

    def test_defer_on_younger_p_holder(
        self, protocol, flat_program, order_program
    ):
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, order_program, pid=2)
        # Younger acquires a pseudo/pivot-mode lock on 'reserve'.
        activity = launch(younger, "reserve")
        decision = protocol.request_activity_lock(
            younger, activity, LockMode.P
        )
        assert isinstance(decision, Grant)
        request = launch(older, "reserve")
        decision = protocol.request_activity_lock(
            older, request, LockMode.C
        )
        assert isinstance(decision, Defer)
        assert younger.pid in decision.wait_for

    @pytest.mark.parametrize("requester_is_older", [True, False])
    @pytest.mark.parametrize("holder_aborting", [True, False])
    def test_probe_agrees_with_the_comp_rule(
        self, env, requester_is_older, holder_aborting
    ):
        """Residue of the thread-per-shard manager, pinned by bench/
        (goes with ROADMAP 2(a)): the read-only probe says yes exactly
        where the Comp-Rule grants, and the direct grant is the rule's
        grant tail."""
        protocol, older, younger = env
        requester, holder = (
            (older, younger) if requester_is_older else (younger, older)
        )
        grant_c(protocol, holder, "reserve")
        if holder_aborting:
            holder.begin_abort()
        verdicts = protocol.probe_c_grants(requester, ["reserve", "ship"])
        assert verdicts["ship"]  # commutes with everything held
        twin = launch(requester, "reserve")
        decision = protocol.request_activity_lock(
            requester, twin, LockMode.C
        )
        assert verdicts["reserve"] == isinstance(decision, Grant)
        assert verdicts["reserve"] == (
            not requester_is_older and not holder_aborting
        )
        direct = protocol.grant_c_direct(
            requester, mint(protocol, requester, "ship")
        )
        assert isinstance(direct, Grant)
        assert [lock.mode for lock in direct.locks] == [LockMode.C]

    def test_commutative_requests_ignore_each_other(self, env):
        protocol, older, younger = env
        ship = mint(protocol, older, "ship")
        decision = protocol.request_activity_lock(
            older, ship, LockMode.C
        )
        assert isinstance(decision, Grant)
        grant_c(protocol, younger, "reserve")
        assert not protocol.table.on_hold(younger)


class TestPivRule:
    def test_grant_without_conflicts(self, protocol, order_program):
        process = make_process(protocol, order_program, pid=1)
        activity = launch(process, "reserve")
        protocol.request_activity_lock(process, activity, LockMode.C)
        process.on_committed(activity)
        wrap = launch(process, "wrap")
        protocol.request_activity_lock(process, wrap, LockMode.C)
        process.on_committed(wrap)
        pivot = launch(process, "charge")
        decision = protocol.request_activity_lock(
            process, pivot, LockMode.P
        )
        assert isinstance(decision, Grant)
        assert protocol._token_owner == process.pid
        # Comp→Piv: every C lock was converted.
        assert protocol.table.c_locks_of(process.pid) == ()

    def test_defer_on_older_c_holder(
        self, protocol, flat_program, order_program
    ):
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, order_program, pid=2)
        grant_c(protocol, older, "reserve")
        grant_c(protocol, younger, "reserve")  # shares behind older
        # P-mode request on a compensatable type (a pseudo pivot)
        # isolates the Comp→Piv conversion condition.
        pivot = mint(protocol, younger, "wrap")
        decision = protocol.request_activity_lock(
            younger, pivot, LockMode.P
        )
        assert isinstance(decision, Defer)
        assert older.pid in decision.wait_for
        assert decision.reason == "piv-rule-defer"

    def test_younger_c_holders_cascaded(
        self, protocol, flat_program, order_program
    ):
        older = make_process(protocol, order_program, pid=1)
        younger = make_process(protocol, flat_program, pid=2)
        grant_c(protocol, older, "reserve")
        grant_c(protocol, younger, "reserve")
        pivot = mint(protocol, older, "charge")
        decision = protocol.request_activity_lock(
            older, pivot, LockMode.P
        )
        # Conversion of older's C lock on 'reserve' hits younger's
        # shared C lock -> cascade.
        assert isinstance(decision, AbortVictims)
        assert decision.victims == frozenset({younger.pid})

    def test_p_lock_holders_are_globally_serialized(
        self, protocol, order_program
    ):
        """Literal Piv-Rule: any other P-lock holder defers a P request,
        pseudo pivots included."""
        first = make_process(protocol, order_program, pid=1)
        second = make_process(protocol, order_program, pid=2)
        pseudo = mint(protocol, first, "reserve")
        protocol.request_activity_lock(first, pseudo, LockMode.P)
        # A pseudo-pivot P lock does not take the completing token...
        assert protocol._token_owner is None
        charge_first = mint(protocol, first, "charge")
        decision = protocol.request_activity_lock(
            first, charge_first, LockMode.P
        )
        # ...but a real pivot of the same process proceeds and does.
        assert isinstance(decision, Grant)
        assert protocol._token_owner == first.pid
        charge_second = mint(protocol, second, "charge")
        decision = protocol.request_activity_lock(
            second, charge_second, LockMode.P
        )
        assert isinstance(decision, Defer)
        assert decision.reason == "other-p-holder"
        assert decision.wait_for == frozenset({first.pid})


class TestCInverseRule:
    def test_compensation_aborts_later_sharers(self, env):
        protocol, older, younger = env
        reserved = grant_c(protocol, older, "reserve")
        older.on_committed(reserved)
        grant_c(protocol, younger, "reserve")  # shares after older
        plan = None
        # Older aborts (e.g. intrinsic failure elsewhere).
        wrap = launch(older, "wrap")
        plan = older.on_failed(wrap)
        comp = older.make_compensation(plan.compensations[0])
        decision = protocol.request_compensation_lock(older, comp)
        assert isinstance(decision, AbortVictims)
        assert decision.victims == frozenset({younger.pid})

    def test_compensation_ignores_earlier_holders(self, env):
        protocol, older, younger = env
        grant_c(protocol, older, "reserve")
        reserved = grant_c(protocol, younger, "reserve")
        younger.on_committed(reserved)
        wrap = launch(younger, "wrap")
        plan = younger.on_failed(wrap)
        comp = younger.make_compensation(plan.compensations[0])
        decision = protocol.request_compensation_lock(younger, comp)
        # Older's lock precedes ours: unaffected, grant.
        assert isinstance(decision, Grant)

    def test_compensation_without_lock_is_an_error(self, env):
        protocol, older, __ = env
        reserved = launch(older, "reserve")
        older.on_committed(reserved)  # committed without a lock (bug)
        wrap = launch(older, "wrap")
        plan = older.on_failed(wrap)
        comp = older.make_compensation(plan.compensations[0])
        with pytest.raises(ProtocolError):
            protocol.request_compensation_lock(older, comp)

    def test_regular_activity_rejected(self, env):
        protocol, older, __ = env
        activity = launch(older, "reserve")
        with pytest.raises(ProtocolError):
            protocol.request_compensation_lock(older, activity)


class TestCommitRule:
    def test_commit_clean_process(self, env):
        protocol, older, __ = env
        grant_c(protocol, older, "reserve")
        decision = protocol.try_commit(older)
        assert isinstance(decision, Grant)

    def test_commit_deferred_while_on_hold(self, env):
        protocol, older, younger = env
        grant_c(protocol, older, "reserve")
        grant_c(protocol, younger, "reserve")
        decision = protocol.try_commit(younger)
        assert isinstance(decision, Defer)
        assert decision.reason == "commit-on-hold"
        assert decision.wait_for == frozenset({older.pid})

    def test_commit_allowed_after_older_detaches(self, env):
        protocol, older, younger = env
        grant_c(protocol, older, "reserve")
        grant_c(protocol, younger, "reserve")
        protocol.detach(older)
        decision = protocol.try_commit(younger)
        assert isinstance(decision, Grant)


class TestAbortRuleAndLifecycle:
    def test_detach_releases_locks_and_token(
        self, protocol, order_program
    ):
        process = make_process(protocol, order_program, pid=1)
        from repro.activities.activity import Activity

        charge = Activity(
            protocol.registry.get("charge"), process.pid, seq=0
        )
        protocol.request_activity_lock(process, charge, LockMode.P)
        assert protocol._token_owner == process.pid
        protocol.detach(process)
        assert protocol._token_owner is None
        assert protocol.table.lock_count == 0

    def test_requests_from_inactive_process_rejected(self, env):
        protocol, older, __ = env
        older.begin_abort()
        from repro.activities.activity import Activity

        activity = Activity(
            protocol.registry.get("reserve"), older.pid, seq=0
        )
        with pytest.raises(ProtocolError):
            protocol.request_activity_lock(older, activity, LockMode.C)

    def test_detached_process_rejected(self, env, flat_program):
        protocol, older, __ = env
        protocol.detach(older)
        from repro.activities.activity import Activity

        activity = Activity(
            protocol.registry.get("reserve"), older.pid, seq=0
        )
        with pytest.raises(ProtocolError):
            protocol.request_activity_lock(older, activity, LockMode.C)


class TestFirstClassCompleting:
    def test_completing_wounds_older_running_holders(
        self, protocol, flat_program, order_program
    ):
        older = make_process(protocol, flat_program, pid=1)
        younger = make_process(protocol, order_program, pid=2)
        grant_c(protocol, older, "reserve")
        # Younger becomes completing: walk it through its pivot on a
        # non-conflicting path.
        from repro.activities.activity import Activity

        charge = Activity(
            protocol.registry.get("charge"), younger.pid, seq=50
        )
        decision = protocol.request_activity_lock(
            younger, charge, LockMode.P
        )
        assert isinstance(decision, Grant)
        younger.state = ProcessState.COMPLETING
        wrap = Activity(
            protocol.registry.get("wrap"), younger.pid, seq=51
        )
        decision = protocol.request_activity_lock(
            younger, wrap, LockMode.C
        )
        assert isinstance(decision, AbortVictims)
        assert decision.victims == frozenset({older.pid})

    def test_two_completing_processes_rejected(
        self, protocol, flat_program
    ):
        first = make_process(protocol, flat_program, pid=1)
        second = make_process(protocol, flat_program, pid=2)
        from repro.activities.activity import Activity

        wrap_second = Activity(
            protocol.registry.get("wrap"), second.pid, seq=0
        )
        protocol.request_activity_lock(second, wrap_second, LockMode.C)
        first.state = ProcessState.COMPLETING
        second.state = ProcessState.COMPLETING
        reserve = Activity(
            protocol.registry.get("reserve"), first.pid, seq=0
        )
        with pytest.raises(ProtocolError):
            protocol.request_activity_lock(first, reserve, LockMode.C)
