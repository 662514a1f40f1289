"""Integration + property tests for the transactional subsystems.

The paper's bottom layer must provide serializable (CPSR) and
cascade-free (ACA) executions; these tests drive interleaved stepwise
transactions against a subsystem and verify both guarantees, including
hypothesis properties over random interleavings and crashes.
"""

import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DataDeadlockAvoided,
    SubsystemError,
    SubsystemWouldBlock,
    TransactionAborted,
)
from repro.storage import Store
from repro.subsystems.programs import (
    Operation,
    TransactionProgram,
    inverse_program,
)
from repro.subsystems.storage import DurableRecordStore
from repro.subsystems.subsystem import SubsystemPool, TransactionalSubsystem


class TestAtomicExecution:
    def test_execute_atomic_commits(self):
        sub = TransactionalSubsystem("s")
        program = TransactionProgram(
            "inc", (Operation.write("k"), Operation.read("k"))
        )
        results = sub.execute_atomic(program)
        assert results == [1]
        assert sub.committed_count == 1

    def test_execute_activity_via_catalog(self):
        sub = TransactionalSubsystem("s")
        sub.register_program(
            "deposit", TransactionProgram("deposit", (Operation.write("b"),))
        )
        sub.execute_activity("deposit")
        sub.execute_activity("deposit")
        assert sub.store.read("b") == 2

    def test_duplicate_catalog_entry_rejected(self):
        sub = TransactionalSubsystem("s")
        program = TransactionProgram("p", (Operation.write("k"),))
        sub.register_program("a", program)
        with pytest.raises(SubsystemError):
            sub.register_program("a", program)

    def test_unknown_activity_rejected(self):
        sub = TransactionalSubsystem("s")
        with pytest.raises(SubsystemError):
            sub.execute_activity("ghost")


class TestInversePrograms:
    def test_inverse_undoes_increment(self):
        sub = TransactionalSubsystem("s")
        program = TransactionProgram("inc", (Operation.write("k"),))
        inverse = inverse_program(program)
        sub.execute_atomic(program)
        sub.execute_atomic(inverse)
        assert sub.store.read("k") == 0

    def test_inverse_drops_reads(self):
        program = TransactionProgram(
            "ro", (Operation.read("a"), Operation.write("b"))
        )
        inverse = inverse_program(program)
        assert inverse.read_set == frozenset()
        assert inverse.write_set == {"b"}

    def test_conflicts_with(self):
        writer = TransactionProgram("w", (Operation.write("k"),))
        reader = TransactionProgram("r", (Operation.read("k"),))
        bystander = TransactionProgram("b", (Operation.read("m"),))
        assert writer.conflicts_with(reader)
        assert not reader.conflicts_with(bystander)
        assert not reader.conflicts_with(reader)


class TestInterleavedGuarantees:
    def test_interleaving_is_serializable(self):
        sub = TransactionalSubsystem("s")
        t1 = sub.begin(timestamp=1)
        t2 = sub.begin(timestamp=2)
        t1.write("a", lambda old: (old or 0) + 1)
        t2.write("b", lambda old: (old or 0) + 1)
        t1.read("c")
        t2.read("d")
        t1.commit()
        t2.commit()
        assert sub.is_serializable()
        assert sub.avoids_cascading_aborts()

    def test_conflicting_access_blocks(self):
        sub = TransactionalSubsystem("s")
        t1 = sub.begin(timestamp=1)
        t2 = sub.begin(timestamp=2)
        t1.write("k", lambda old: 1)
        with pytest.raises(DataDeadlockAvoided):
            t2.read("k")  # younger -> dies

    def test_older_requester_waits(self):
        sub = TransactionalSubsystem("s")
        t2 = sub.begin(timestamp=2)
        t1 = sub.begin(timestamp=1)
        t2.write("k", lambda old: 1)
        with pytest.raises(SubsystemWouldBlock):
            t1.read("k")
        t2.commit()
        assert t1.read("k") == 1

    def test_aborted_writer_leaves_no_trace_for_readers(self):
        sub = TransactionalSubsystem("s")
        t1 = sub.begin(timestamp=1)
        t1.write("k", lambda old: 77)
        t1.abort()
        t2 = sub.begin(timestamp=2)
        assert t2.read("k") == 0
        t2.commit()
        assert sub.avoids_cascading_aborts()


class TestSubsystemCrash:
    def test_crash_drops_in_flight_writes(self):
        sub = TransactionalSubsystem("s")
        committed = sub.begin()
        committed.write("a", lambda old: 10)
        committed.commit()
        doomed = sub.begin()
        doomed.write("a", lambda old: 99)
        doomed.write("b", lambda old: 1)
        sub.simulate_crash_and_recover()
        assert sub.store.snapshot() == {"a": 10}
        assert sub.aborted_count == 1

    def test_locks_cleared_by_crash(self):
        sub = TransactionalSubsystem("s")
        doomed = sub.begin()
        doomed.write("a", lambda old: 1)
        sub.simulate_crash_and_recover()
        survivor = sub.begin()
        survivor.write("a", lambda old: 7)
        survivor.commit()
        assert sub.store.read("a") == 7

    def test_history_stays_cpsr_and_aca(self):
        sub = TransactionalSubsystem("s")
        first = sub.begin()
        first.write("a", lambda old: 1)
        first.commit()
        doomed = sub.begin()
        doomed.write("b", lambda old: 1)
        sub.simulate_crash_and_recover()
        after = sub.begin()
        after.read("a")
        after.commit()
        assert sub.is_serializable()
        assert sub.avoids_cascading_aborts()

    def test_crashed_handles_are_dead(self):
        sub = TransactionalSubsystem("s")
        doomed = sub.begin()
        doomed.write("a", lambda old: 1)
        sub.simulate_crash_and_recover()
        with pytest.raises(TransactionAborted):
            doomed.write("a", lambda old: 2)


class TestPool:
    def test_get_or_create(self):
        pool = SubsystemPool()
        first = pool.get_or_create("a")
        again = pool.get_or_create("a")
        assert first is again
        assert len(pool) == 1

    def test_duplicate_create_rejected(self):
        pool = SubsystemPool()
        pool.create("a")
        with pytest.raises(SubsystemError):
            pool.create("a")

    def test_unknown_get_rejected(self):
        pool = SubsystemPool()
        with pytest.raises(SubsystemError):
            pool.get("ghost")


@settings(max_examples=40, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),   # transaction index
            st.sampled_from(["r", "w", "c"]),        # operation
            st.sampled_from(["x", "y", "z"]),        # key
        ),
        min_size=1,
        max_size=24,
    )
)
def test_property_random_interleavings_are_cpsr_and_aca(script):
    """Any stepwise interleaving the lock manager admits is CPSR + ACA.

    Blocked or died operations abort the transaction (wait-die), which
    is a legal subsystem outcome; the committed projection must always
    be serializable and cascade-free.
    """
    sub = TransactionalSubsystem("prop")
    txns = {i: sub.begin(timestamp=i + 1) for i in range(3)}
    dead: set[int] = set()
    for index, op, key in script:
        txn = txns[index]
        if index in dead or txn.state.value != "active":
            continue
        try:
            if op == "r":
                txn.read(key)
            elif op == "w":
                txn.write(key, lambda old: (old or 0) + 1)
            else:
                txn.commit()
        except (SubsystemWouldBlock, DataDeadlockAvoided):
            txn.abort()
            dead.add(index)
    for index, txn in txns.items():
        if txn.state.value == "active":
            txn.abort()
    assert sub.is_serializable()
    assert sub.avoids_cascading_aborts()



KEYS = ("x", "y")


def _run_until_crash(sub, script, crash_at) -> dict[str, int]:
    """Play ``(transaction, op, key)`` steps on three stepwise
    transactions up to step ``crash_at``; returns the committed
    increments per key.  Every read must see the committed value plus
    the reader's own buffered increments: strict 2PL lets no other
    transaction's uncommitted write near it."""
    txns = {i: sub.begin(timestamp=i + 1) for i in range(3)}
    committed = dict.fromkeys(KEYS, 0)
    pending = {i: dict.fromkeys(KEYS, 0) for i in txns}
    for index, op, key in script[:crash_at]:
        txn = txns[index]
        if txn.state.value != "active":
            continue
        try:
            if op == "w":
                txn.write(key, lambda old: (old or 0) + 1)
                pending[index][key] += 1
            elif op == "r":
                assert txn.read(key) == committed[key] + pending[index][key]
            elif op == "c":
                txn.commit()
                for k, count in pending[index].items():
                    committed[k] += count
            else:
                txn.abort()
        except (SubsystemWouldBlock, DataDeadlockAvoided):
            txn.abort()
        if txn.state.value != "active":
            pending[index] = dict.fromkeys(KEYS, 0)
    return committed


@settings(max_examples=40, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),         # transaction
            st.sampled_from(["w", "w", "r", "c", "a"]),    # op
            st.sampled_from(KEYS),                         # key
        ),
        min_size=1,
        max_size=20,
    ),
    crash_at=st.integers(min_value=0, max_value=20),
)
@example(script=[(0, "w", "x"), (0, "w", "x"), (0, "r", "x")], crash_at=3)
@example(
    script=[(0, "w", "x"), (0, "c", "x"), (1, "w", "x"), (1, "r", "x")],
    crash_at=4,
)
def test_property_crash_preserves_exactly_committed_effects(
    script, crash_at
):
    """Stepwise reads, increments, commits and aborts on a pool backed
    by a ``log`` store, then a crash: memory holds exactly the
    committed increments, the store reloads to the same state, every
    read saw its own transaction's writes, and the history is
    CPSR + ACA."""
    with tempfile.TemporaryDirectory() as root:
        store = Store.open("log", root, fsync="never")
        try:
            sub = SubsystemPool(store=store).create("prop")
            committed = _run_until_crash(sub, script, crash_at)
            sub.simulate_crash_and_recover()
            assert {key: sub.store.read(key) for key in KEYS} == committed
            reloaded = DurableRecordStore(store.subsystem_data("prop"))
            assert reloaded.snapshot() == sub.store.snapshot()
            assert sub.is_serializable()
            assert sub.avoids_cascading_aborts()
        finally:
            store.close()
