"""In-memory record store backing a transactional subsystem.

Records are keyed by string and hold arbitrary (usually numeric) values.
The store holds committed values only: a
:class:`~repro.subsystems.transactions.Transaction` buffers its writes
and hands them to :meth:`RecordStore.commit` (no-steal), so there is
nothing to undo, and all concurrency control happens in
:class:`~repro.subsystems.lock_manager.DataLockManager`.
"""

from __future__ import annotations


class RecordStore:
    """A flat key/value record store with a default value for misses."""

    def __init__(self, default: object = 0) -> None:
        self._records: dict[str, object] = {}
        self._default = default

    def read(self, key: str) -> object:
        """Return the committed value of ``key`` (default when absent)."""
        return self._records.get(key, self._default)

    def commit(self, writes: dict[str, object]) -> None:
        """Apply one committed transaction's final values."""
        self._records.update(writes)

    def snapshot(self) -> dict[str, object]:
        """A shallow copy of all records, for assertions in tests."""
        return dict(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records


class DurableRecordStore(RecordStore):
    """A record store whose committed state survives restarts.

    Redo-only: :meth:`commit` applies a transaction's final values and
    appends them as one ``txn`` frame (``{"kind": "txn", "writes":
    {key: value}}``), so nothing uncommitted ever reaches the
    repository and there is nothing to undo after a crash.
    Construction replays the frames, last write wins.
    """

    def __init__(self, repository, default: object = 0) -> None:
        super().__init__(default=default)
        self._repository = repository
        for record in repository.records():
            self._records.update(record["writes"])

    def commit(self, writes: dict[str, object]) -> None:
        super().commit(writes)
        self._repository.append({"kind": "txn", "writes": writes})
