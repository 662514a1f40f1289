"""Integration + property tests for the transactional subsystems.

The paper's bottom layer must provide serializable (CPSR) and
cascade-free (ACA) executions; these tests drive interleaved stepwise
transactions against a subsystem and hold the online commit check and
the offline oracles of :mod:`tests.test_subsystems.oracles` to both
guarantees, including hypothesis properties over random interleavings
and crashes, and a lock manager broken on purpose that the online
check must catch at the first bad commit.
"""

import itertools
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CommitValidationError,
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
from repro.subsystems.transactions import TransactionState
from tests.test_subsystems.oracles import (
    HistoryRecorder,
    avoids_cascading_aborts,
    is_serializable,
)

#: The sweeps take their example count from the profile: 100 in
#: tier-1, 2,000 fresh ones under ``--hypothesis-profile=smoke``.
SWEEP = settings(deadline=None)


def _recorded(name: str = "s"):
    sub = TransactionalSubsystem(name)
    return sub, HistoryRecorder(sub).history


def _cpsr_and_aca(history) -> bool:
    return is_serializable(history) and avoids_cascading_aborts(history)


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
        sub, history = _recorded()
        t1 = sub.begin(timestamp=1)
        t2 = sub.begin(timestamp=2)
        t1.write("a", lambda old: (old or 0) + 1)
        t2.write("b", lambda old: (old or 0) + 1)
        t1.read("c")
        t2.read("d")
        t1.commit()
        t2.commit()
        assert sub.counters.validated == 2
        assert _cpsr_and_aca(history)

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
        sub, history = _recorded()
        t1 = sub.begin(timestamp=1)
        t1.write("k", lambda old: 77)
        t1.abort()
        t2 = sub.begin(timestamp=2)
        assert t2.read("k") == 0
        t2.commit()
        assert avoids_cascading_aborts(history)


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
        sub, history = _recorded()
        first = sub.begin()
        first.write("a", lambda old: 1)
        first.commit()
        doomed = sub.begin()
        doomed.write("b", lambda old: 1)
        sub.simulate_crash_and_recover()
        after = sub.begin()
        after.read("a")
        after.commit()
        assert sub.counters.validated == 2
        assert history[-3] == (doomed.txn_id, "a", "")
        assert _cpsr_and_aca(history)

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


#: Three keys, every write an increment, so a value tells how many
#: commits of its key a transaction saw.
SWEEP_KEYS = ("x", "y", "z")

STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),                 # slot
        st.sampled_from(["r", "w", "w", "c", "a", "crash"]),   # op
        st.sampled_from(SWEEP_KEYS),                           # key
    ),
    min_size=1,
    max_size=30,
)


class _Interleaver:
    """Play ``(slot, op, key)`` steps on three stepwise transaction
    slots of one subsystem, and judge each commit against a serial run
    in commit order.

    A slot whose transaction ended begins a fresh, younger one at its
    next step; ``crash`` crashes the subsystem and restarts every slot.
    A blocked or refused lock aborts the transaction (wait-die).  A
    commit is *serial* when every value its transaction saw — each
    read, and the old value of each increment — equals the committed
    value at commit time plus its own earlier increments: exactly what
    it would have seen running alone, after every commit before it.
    ``verdicts`` holds ``(admitted, serial)`` per commit attempt; a
    commit the online check refused is aborted.
    """

    def __init__(self, sub: TransactionalSubsystem) -> None:
        self.sub = sub
        self.committed = dict.fromkeys(SWEEP_KEYS, 0)
        self.verdicts: list[tuple[bool, bool]] = []
        self._stamps = itertools.count(1)
        self.slots = {}
        for slot in range(3):
            self._begin(slot)

    def _begin(self, slot: int) -> None:
        txn = self.sub.begin(timestamp=next(self._stamps))
        # (key, value seen, own increments of key before it), and the
        # increments buffered so far.
        self.slots[slot] = (txn, [], dict.fromkeys(SWEEP_KEYS, 0))

    def play(self, script) -> "_Interleaver":
        for slot, op, key in script:
            self.step(slot, op, key)
        return self

    def step(self, slot: int, op: str, key: str) -> None:
        if op == "crash":
            self.sub.simulate_crash_and_recover()
            for other in self.slots:
                self._begin(other)
            return
        if self.slots[slot][0].state is not TransactionState.ACTIVE:
            self._begin(slot)
        txn, seen, pending = self.slots[slot]
        try:
            if op == "r":
                seen.append((key, txn.read(key), pending[key]))
            elif op == "w":

                def increment(old):
                    seen.append((key, old, pending[key]))
                    return old + 1

                txn.write(key, increment)
                pending[key] += 1
            elif op == "c":
                self._commit(txn, seen, pending)
            else:
                txn.abort()
        except (SubsystemWouldBlock, DataDeadlockAvoided):
            txn.abort()

    def _commit(self, txn, seen, pending) -> None:
        serial = all(
            value == self.committed[key] + own for key, value, own in seen
        )
        try:
            txn.commit()
        except CommitValidationError:
            self.verdicts.append((False, serial))
            txn.abort()
            return
        self.verdicts.append((True, serial))
        for key, count in pending.items():
            self.committed[key] += count


def _grant_everything(sub: TransactionalSubsystem) -> None:
    """The seeded mutation: the data lock manager lets every
    transaction past every held lock."""
    sub.locks.acquire = lambda *args, **kwargs: None


@SWEEP
@given(script=STEPS)
@example(
    script=[(0, "w", "x"), (1, "r", "y"), (0, "crash", "x"),
            (1, "w", "x"), (1, "c", "x"), (2, "r", "x"), (2, "c", "x")],
)
def test_property_random_interleavings_are_cpsr_and_aca(script):
    """Any stepwise interleaving the lock manager admits, crashes
    included, passes the online check at every commit, is serial in
    commit order, and its recorded history is CPSR + ACA by the
    offline oracles."""
    sub, history = _recorded("prop")
    run = _Interleaver(sub).play(script)
    assert all(admitted and serial for admitted, serial in run.verdicts)
    assert sub.counters.validated == len(run.verdicts)
    assert {key: sub.store.read(key) for key in SWEEP_KEYS} == run.committed
    assert _cpsr_and_aca(history)


@SWEEP
@given(script=STEPS)
@example(
    script=[(0, "r", "x"), (1, "r", "x"), (0, "w", "x"), (1, "w", "x"),
            (0, "c", "x"), (1, "c", "x")],
)
def test_property_online_check_refuses_exactly_the_non_serial_commits(
    script,
):
    """With every lock granted, the online check refuses a commit if
    and only if it is not serial in commit order — so it raises at the
    first bad commit — and what it admitted is all the store holds."""
    sub = TransactionalSubsystem("mutant")
    _grant_everything(sub)
    run = _Interleaver(sub).play(script)
    for admitted, serial in run.verdicts:
        assert admitted == serial
    assert {key: sub.store.read(key) for key in SWEEP_KEYS} == run.committed


@pytest.mark.parametrize(
    "script, cycle",
    [
        # Lost update: both read x, both increment it; the second
        # commit would overwrite the first.
        ([(0, "r", "x"), (1, "r", "x"), (0, "w", "x"), (1, "w", "x"),
          (0, "c", "x"), (1, "c", "x")], True),
        # Write skew across two keys.
        ([(0, "r", "x"), (1, "r", "y"), (0, "w", "y"), (1, "w", "x"),
          (0, "c", "x"), (1, "c", "x")], True),
        # A read overtaken: 1 reads x, 0 increments and commits it,
        # then 1 commits.  Serializable, but only with 1 first, against
        # the commit order — which strict 2PL never produces.
        ([(1, "r", "x"), (0, "w", "x"), (0, "c", "x"), (1, "w", "y"),
          (1, "c", "y")], False),
    ],
    ids=["lost-update", "write-skew", "overtaken-read"],
)
def test_a_lock_let_past_is_caught_at_the_first_bad_commit(script, cycle):
    """The seeded mutation on fixed scripts: the first commit passes,
    the second — the first that is not serial in commit order — raises
    and writes nothing.  Where that commit would close a cycle, the
    offline oracle agrees it is the first bad one."""
    sub, history = _recorded("mutant")
    _grant_everything(sub)
    run = _Interleaver(sub).play(script[:-1])
    last = run.slots[script[-1][0]][0]
    assert is_serializable(history)
    assert is_serializable(history + [(last.txn_id, "c", "")]) != cycle
    run.step(*script[-1])
    assert run.verdicts == [(True, True), (False, False)]
    assert sub.store.snapshot() == {script[2][2]: 1}


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
            recorder = HistoryRecorder(sub)
            committed = _run_until_crash(sub, script, crash_at)
            sub.simulate_crash_and_recover()
            assert {key: sub.store.read(key) for key in KEYS} == committed
            reloaded = DurableRecordStore(store.subsystem_data("prop"))
            assert reloaded.snapshot() == sub.store.snapshot()
            assert _cpsr_and_aca(recorder.history)
        finally:
            store.close()
