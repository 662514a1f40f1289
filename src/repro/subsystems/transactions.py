"""Subsystem transactions: atomic units executed on behalf of activities.

A :class:`Transaction` provides the classic begin/read/write/commit/abort
interface over a :class:`~repro.subsystems.storage.RecordStore`, guarded by
the subsystem's :class:`~repro.subsystems.lock_manager.DataLockManager`.
Writes stay in the transaction's buffer until :meth:`~Transaction.commit`
hands them to the store (no-steal), so an abort or a crash drops the
buffer and has nothing to undo; strict 2PL keeps the buffer invisible to
every other transaction, exactly as it would an in-place write.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.errors import TransactionAborted
from repro.subsystems.lock_manager import DataLockManager, DataLockMode
from repro.subsystems.storage import RecordStore


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
    ) -> None:
        self.txn_id = txn_id
        self.timestamp = timestamp
        self._store = store
        self._locks = locks
        #: Uncommitted final values, in first-write order.
        self._writes: dict[str, object] = {}
        self._history = history
        self.state = TransactionState.ACTIVE
        self.reads: list[object] = []

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, key: str) -> object:
        """Read ``key`` under a shared lock: this transaction's own
        write if it made one, else the committed value."""
        self._require_active()
        self._locks.acquire(
            self.txn_id, self.timestamp, key, DataLockMode.SHARED
        )
        value = self._current(key)
        self.reads.append(value)
        self._record("r", key)
        return value

    def write(
        self, key: str, update: Callable[[object], object]
    ) -> object:
        """Update ``key`` under an exclusive lock; returns the new value.

        ``update`` receives the current value and returns the new one,
        which stays in the buffer until commit.
        """
        self._require_active()
        self._locks.acquire(
            self.txn_id, self.timestamp, key, DataLockMode.EXCLUSIVE
        )
        new = update(self._current(key))
        self._writes[key] = new
        self._record("w", key)
        return new

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Commit: hand the store the buffered writes (a durable store
        makes them one redo frame), release all locks.  A read-only
        transaction hands over nothing."""
        self._require_active()
        if self._writes:
            self._store.commit(self._writes)
        self._end(TransactionState.COMMITTED, "c")

    def abort(self) -> None:
        """Abort: drop the buffered writes, release all locks."""
        self._require_active()
        self._end(TransactionState.ABORTED, "a")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _current(self, key: str) -> object:
        if key in self._writes:
            return self._writes[key]
        return self._store.read(key)

    def _end(self, state: TransactionState, op: str) -> None:
        self._writes = {}
        self.state = state
        self._locks.release_all(self.txn_id)
        self._record(op, "")

    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(
                f"txn {self.txn_id} is {self.state.value}; no further "
                "operations allowed"
            )

    def _record(self, op: str, key: str) -> None:
        if self._history is not None:
            self._history.append((self.txn_id, op, key))
