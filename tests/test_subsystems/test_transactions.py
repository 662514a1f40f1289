"""Unit tests for subsystem transactions (buffering, strictness, the
online commit check)."""

import pytest

from repro.errors import CommitValidationError, TransactionAborted
from repro.subsystems.programs import Operation, TransactionProgram
from repro.subsystems.subsystem import TransactionalSubsystem
from tests.test_subsystems.oracles import HistoryRecorder


@pytest.fixture
def sub() -> TransactionalSubsystem:
    return TransactionalSubsystem("test")


class TestCommitAbort:
    def test_commit_makes_writes_visible(self, sub):
        txn = sub.begin()
        txn.write("k", lambda old: 42)
        txn.commit()
        assert sub.store.read("k") == 42

    def test_abort_restores_before_images(self, sub):
        seed = sub.begin()
        seed.write("k", lambda old: 10)
        seed.commit()
        txn = sub.begin()
        txn.write("k", lambda old: 99)
        txn.write("m", lambda old: 1)
        txn.abort()
        assert sub.store.read("k") == 10
        assert sub.store.read("m") == 0

    def test_abort_restores_in_reverse_order(self, sub):
        txn = sub.begin()
        txn.write("k", lambda old: 1)
        txn.write("k", lambda old: 2)
        txn.abort()
        assert sub.store.read("k") == 0

    def test_no_ops_after_commit(self, sub):
        txn = sub.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.read("k")

    def test_no_ops_after_abort(self, sub):
        txn = sub.begin()
        txn.abort()
        with pytest.raises(TransactionAborted):
            txn.write("k", lambda old: 1)

    def test_locks_released_at_commit(self, sub):
        txn = sub.begin()
        txn.write("k", lambda old: 1)
        txn.commit()
        other = sub.begin()
        assert other.read("k") == 1

    def test_locks_released_at_abort(self, sub):
        txn = sub.begin()
        txn.write("k", lambda old: 1)
        txn.abort()
        other = sub.begin()
        other.write("k", lambda old: 5)
        other.commit()
        assert sub.store.read("k") == 5

    def test_reads_collected(self, sub):
        seed = sub.begin()
        seed.write("k", lambda old: 3)
        seed.commit()
        txn = sub.begin()
        txn.read("k")
        txn.read("m")
        assert txn.reads == [3, 0]


class TestHistoryRecording:
    """The test-side recorder the oracles read (the subsystem itself
    keeps no history)."""

    def test_history_records_operations(self, sub):
        recorder = HistoryRecorder(sub)
        txn = sub.begin()
        txn.read("a")
        txn.write("b", lambda old: 1)
        txn.commit()
        ops = [(op, key) for _, op, key in recorder.history]
        assert ops == [("r", "a"), ("w", "b"), ("c", "")]
        assert not hasattr(sub, "history")

    def test_history_records_aborts(self, sub):
        recorder = HistoryRecorder(sub)
        txn = sub.begin()
        txn.write("a", lambda old: 1)
        txn.abort()
        assert recorder.history[-1][1] == "a"


class TestOnlineValidation:
    def test_counters_count_committed_writers_per_key(self, sub):
        for _ in range(3):
            txn = sub.begin()
            txn.read("a")
            txn.write("b", lambda old: old + 1)
            txn.commit()
        aborted = sub.begin()
        aborted.write("a", lambda old: 9)
        aborted.abort()
        assert sub.counters.by_key == {"b": 3}
        assert sub.counters.validated == 3

    def test_atomic_commits_are_all_validated(self, sub):
        sub.register_program(
            "p", TransactionProgram("inc", (Operation.write("k"),))
        )
        for _ in range(5):
            sub.execute_activity("p")
        assert sub.counters.validated == sub.committed_count == 5

    def test_a_commit_of_a_key_read_since_fails_the_reader(self, sub):
        """With the lock manager bypassed, a writer commits a key a
        live transaction already read: that transaction must not
        commit, and writes nothing."""
        sub.locks.acquire = lambda *args, **kwargs: None
        reader = sub.begin()
        reader.read("k")
        reader.write("m", lambda old: 5)
        writer = sub.begin()
        writer.write("k", lambda old: 1)
        writer.commit()
        with pytest.raises(CommitValidationError, match="'k'"):
            reader.commit()
        assert reader.state.value == "active"
        assert sub.store.snapshot() == {"k": 1}
        assert sub.counters.validated == 1
