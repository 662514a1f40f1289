"""Subsystem transactions: atomic units executed on behalf of activities.

A :class:`Transaction` provides the classic begin/read/write/commit/abort
interface over a :class:`~repro.subsystems.storage.RecordStore`, guarded by
the subsystem's :class:`~repro.subsystems.lock_manager.DataLockManager`.
Undo is physical (before-images) and in memory only: a store sees a
transaction's writes made durable at :meth:`~Transaction.commit`, never
before (no-steal); strict 2PL makes undo safe without cascades.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.errors import TransactionAborted
from repro.subsystems.lock_manager import DataLockManager, DataLockMode
from repro.subsystems.storage import RecordStore
from repro.subsystems.wal import WriteAheadLog


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One subsystem transaction under strict two-phase locking."""

    def __init__(
        self,
        txn_id: int,
        timestamp: int,
        store: RecordStore,
        locks: DataLockManager,
        history: list[tuple[int, str, str]] | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.txn_id = txn_id
        self.timestamp = timestamp
        self._store = store
        self._locks = locks
        self._undo: list[tuple[str, object]] = []
        self._history = history
        self._wal = wal
        self.state = TransactionState.ACTIVE
        self.reads: list[object] = []

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, key: str) -> object:
        """Read ``key`` under a shared lock; returns the committed value."""
        self._require_active()
        self._locks.acquire(
            self.txn_id, self.timestamp, key, DataLockMode.SHARED
        )
        value = self._store.read(key)
        self.reads.append(value)
        self._record("r", key)
        return value

    def write(
        self, key: str, update: Callable[[object], object]
    ) -> object:
        """Update ``key`` under an exclusive lock; returns the new value.

        ``update`` receives the current value and returns the new one; the
        before-image is retained for undo.
        """
        self._require_active()
        self._locks.acquire(
            self.txn_id, self.timestamp, key, DataLockMode.EXCLUSIVE
        )
        old = self._store.read(key)
        new = update(old)
        if self._wal is not None:
            # WAL rule: the before-image hits the log before the write
            # hits the store.
            self._wal.log_write(self.txn_id, key, old)
        self._undo.append((key, old))
        self._store.write(key, new)
        self._record("w", key)
        return new

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Commit: hand the store the keys written (a durable store
        makes them one redo frame), release all locks, discard undo
        information.  A read-only transaction hands over nothing."""
        self._require_active()
        if self._undo:
            self._store.commit(dict.fromkeys(key for key, _ in self._undo))
        self.state = TransactionState.COMMITTED
        self._undo.clear()
        if self._wal is not None:
            self._wal.log_commit(self.txn_id)
        self._locks.release_all(self.txn_id)
        self._record("c", "")

    def abort(self) -> None:
        """Abort: restore before-images in reverse order, release locks."""
        self._require_active()
        for key, old in reversed(self._undo):
            self._store.write(key, old)
        self._undo.clear()
        self.state = TransactionState.ABORTED
        if self._wal is not None:
            self._wal.log_abort(self.txn_id)
        self._locks.release_all(self.txn_id)
        self._record("a", "")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(
                f"txn {self.txn_id} is {self.state.value}; no further "
                "operations allowed"
            )

    def _record(self, op: str, key: str) -> None:
        if self._history is not None:
            self._history.append((self.txn_id, op, key))
