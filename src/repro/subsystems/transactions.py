"""Subsystem transactions: atomic units executed on behalf of activities.

A :class:`Transaction` provides the classic begin/read/write/commit/abort
interface over a :class:`~repro.subsystems.storage.RecordStore`, guarded by
the subsystem's :class:`~repro.subsystems.lock_manager.DataLockManager`.
Writes stay in the transaction's buffer until :meth:`~Transaction.commit`
hands them to the store (no-steal), so an abort or a crash drops the
buffer and has nothing to undo; strict 2PL keeps the buffer invisible to
every other transaction, exactly as it would an in-place write.

Every commit is checked online (:class:`CommitCounters`): a transaction
notes each key's commit count at its first access, and commits only if
none has moved since — backward validation, as in optimistic
concurrency control.  Strict 2PL always passes it, so a failure is a
bug, raised as :class:`~repro.errors.CommitValidationError`.  Reads
need no check of their own: a read returns the transaction's own
buffer or the committed store, never another transaction's write, so
the history avoids cascading aborts by construction.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.errors import CommitValidationError, TransactionAborted
from repro.subsystems.lock_manager import DataLockManager, DataLockMode
from repro.subsystems.storage import RecordStore


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class CommitCounters:
    """One subsystem's commit count per key: what its transactions
    validate against at commit.

    It grows with the keys the subsystem has written, never with the
    number of operations.
    """

    __slots__ = ("by_key", "validated")

    def __init__(self) -> None:
        #: Committed transactions that wrote each key.
        self.by_key: dict[str, int] = {}
        #: Commits that passed :meth:`validate`.
        self.validated = 0

    def validate(
        self, txn_id: int, seen: dict[str, int], written: dict[str, object]
    ) -> None:
        """Admit a commit whose keys still have the counts ``seen`` at
        their first access, then count a commit of every key in
        ``written``; raise :class:`CommitValidationError` otherwise."""
        by_key = self.by_key
        for key, count in seen.items():
            now = by_key.get(key, 0)
            if now != count:
                raise CommitValidationError(
                    f"txn {txn_id}: {key!r} was committed {now - count} "
                    "time(s) by other transactions since this one "
                    "first accessed it"
                )
        for key in written:
            by_key[key] = by_key.get(key, 0) + 1
        self.validated += 1


class Transaction:
    """One subsystem transaction under strict two-phase locking."""

    def __init__(
        self,
        txn_id: int,
        timestamp: int,
        store: RecordStore,
        locks: DataLockManager,
        counters: CommitCounters,
    ) -> None:
        self.txn_id = txn_id
        self.timestamp = timestamp
        self._store = store
        self._locks = locks
        self._counters = counters
        #: Uncommitted final values, in first-write order.
        self._writes: dict[str, object] = {}
        #: Each key's commit count at this transaction's first access.
        self._seen: dict[str, int] = {}
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
        self._first_access(key)
        value = self._current(key)
        self.reads.append(value)
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
        self._first_access(key)
        new = update(self._current(key))
        self._writes[key] = new
        return new

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Commit: validate (:class:`CommitCounters`), hand the store
        the buffered writes (a durable store makes them one redo
        frame), release all locks.  A read-only transaction hands over
        nothing.  A transaction that fails validation stays active and
        writes nothing."""
        self._require_active()
        self._counters.validate(self.txn_id, self._seen, self._writes)
        if self._writes:
            self._store.commit(self._writes)
        self._end(TransactionState.COMMITTED)

    def abort(self) -> None:
        """Abort: drop the buffered writes, release all locks."""
        self._require_active()
        self._end(TransactionState.ABORTED)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _current(self, key: str) -> object:
        if key in self._writes:
            return self._writes[key]
        return self._store.read(key)

    def _first_access(self, key: str) -> None:
        seen = self._seen
        if key not in seen:
            seen[key] = self._counters.by_key.get(key, 0)

    def _end(self, state: TransactionState) -> None:
        self._writes = {}
        self._seen = {}
        self.state = state
        self._locks.release_all(self.txn_id)

    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(
                f"txn {self.txn_id} is {self.state.value}; no further "
                "operations allowed"
            )
