"""In-memory record store backing a transactional subsystem.

Records are keyed by string and hold arbitrary (usually numeric) values.
The store itself is oblivious to transactions but for :meth:`commit`,
which a durable store makes one redo frame of; undo information is kept
by :class:`~repro.subsystems.transactions.Transaction` objects, and all
concurrency control happens in
:class:`~repro.subsystems.lock_manager.DataLockManager`.
"""

from __future__ import annotations

from collections.abc import Iterator


class RecordStore:
    """A flat key/value record store with a default value for misses."""

    def __init__(self, default: object = 0) -> None:
        self._records: dict[str, object] = {}
        self._default = default

    def read(self, key: str) -> object:
        """Return the committed value of ``key`` (default when absent)."""
        return self._records.get(key, self._default)

    def write(self, key: str, value: object) -> object:
        """Overwrite ``key`` and return the previous value."""
        previous = self._records.get(key, self._default)
        self._records[key] = value
        return previous

    def delete(self, key: str) -> None:
        """Remove ``key`` (restoring the default on future reads)."""
        self._records.pop(key, None)

    def commit(self, keys) -> None:
        """A transaction that wrote ``keys`` committed; their values
        now are its final ones.  Memory is already up to date."""

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def snapshot(self) -> dict[str, object]:
        """A shallow copy of all records, for assertions in tests."""
        return dict(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records


class DurableRecordStore(RecordStore):
    """A record store whose committed state survives restarts.

    No-steal and redo-only: writes change memory alone, and
    :meth:`commit` appends one ``txn`` frame holding a transaction's
    final values (``{"kind": "txn", "writes": {key: value}}``), so
    nothing uncommitted ever reaches the repository and there is
    nothing to undo after a crash.  Construction replays the frames,
    last write wins.
    """

    def __init__(self, repository, default: object = 0) -> None:
        super().__init__(default=default)
        self._repository = repository
        for record in repository.records():
            self._records.update(record["writes"])

    def commit(self, keys) -> None:
        self._repository.append(
            {"kind": "txn", "writes": {key: self.read(key) for key in keys}}
        )
