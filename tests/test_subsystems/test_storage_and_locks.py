"""Unit tests for the record store and the data-level lock manager."""

import pytest

from repro.errors import DataDeadlockAvoided, SubsystemWouldBlock
from repro.subsystems.lock_manager import DataLockManager, DataLockMode
from repro.subsystems.storage import RecordStore


class TestRecordStore:
    def test_default_value(self):
        store = RecordStore()
        assert store.read("missing") == 0

    def test_custom_default(self):
        store = RecordStore(default=None)
        assert store.read("missing") is None

    def test_commit_applies_final_values(self):
        store = RecordStore()
        store.commit({"k": 5})
        store.commit({"k": 7, "m": 1})
        assert store.snapshot() == {"k": 7, "m": 1}

    def test_snapshot_is_a_copy(self):
        store = RecordStore()
        store.commit({"k": 1})
        snap = store.snapshot()
        snap["k"] = 99
        assert store.read("k") == 1

    def test_len_and_contains(self):
        store = RecordStore()
        store.commit({"a": 1, "b": 2})
        assert len(store) == 2
        assert "a" in store


class TestDataLockManager:
    def test_shared_locks_coexist(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "k", DataLockMode.SHARED)
        locks.acquire(2, 2, "k", DataLockMode.SHARED)
        assert set(locks.holders("k")) == {1, 2}

    def test_exclusive_blocks_shared(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "k", DataLockMode.EXCLUSIVE)
        with pytest.raises(DataDeadlockAvoided):
            # Requester 2 is younger than holder 1 -> dies.
            locks.acquire(2, 2, "k", DataLockMode.SHARED)

    def test_wait_die_older_requester_waits(self):
        locks = DataLockManager()
        locks.acquire(2, 2, "k", DataLockMode.EXCLUSIVE)
        with pytest.raises(SubsystemWouldBlock) as exc:
            locks.acquire(1, 1, "k", DataLockMode.EXCLUSIVE)
        assert exc.value.holders == frozenset({2})

    def test_reentrant_acquisition(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "k", DataLockMode.SHARED)
        locks.acquire(1, 1, "k", DataLockMode.SHARED)
        assert locks.lock_count == 1

    def test_upgrade_own_lock(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "k", DataLockMode.SHARED)
        locks.acquire(1, 1, "k", DataLockMode.EXCLUSIVE)
        assert locks.holders("k")[1] is DataLockMode.EXCLUSIVE

    def test_upgrade_blocked_by_other_reader(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "k", DataLockMode.SHARED)
        locks.acquire(2, 2, "k", DataLockMode.SHARED)
        with pytest.raises(SubsystemWouldBlock):
            locks.acquire(1, 1, "k", DataLockMode.EXCLUSIVE)

    def test_exclusive_holder_keeps_strength(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "k", DataLockMode.EXCLUSIVE)
        locks.acquire(1, 1, "k", DataLockMode.SHARED)
        assert locks.holders("k")[1] is DataLockMode.EXCLUSIVE

    def test_release_all(self):
        locks = DataLockManager()
        locks.acquire(1, 1, "a", DataLockMode.SHARED)
        locks.acquire(1, 1, "b", DataLockMode.EXCLUSIVE)
        assert [set(locks.holders(key)) for key in "ab"] == [{1}, {1}]
        locks.release_all(1)
        assert [locks.holders(key) for key in "ab"] == [{}, {}]
        assert locks.lock_count == 0

    def test_release_unblocks(self):
        locks = DataLockManager()
        locks.acquire(2, 2, "k", DataLockMode.EXCLUSIVE)
        locks.release_all(2)
        locks.acquire(1, 1, "k", DataLockMode.EXCLUSIVE)
        assert set(locks.holders("k")) == {1}
