"""Write-ahead logging and crash recovery for subsystems.

The paper assumes the bottom-layer subsystems are real transactional
systems; real transactional systems survive crashes.  This module adds
undo-based WAL to the in-memory substrate:

* every write logs its before-image **before** applying (the WAL rule);
* commit/abort append terminal records;
* after a crash (all in-flight transactions and locks lost, the store —
  our "disk" — retains whatever was applied), :func:`recover_store`
  rolls back every *loser* (a transaction without a terminal record) by
  replaying its before-images in reverse log order.

Strict 2PL guarantees no two uncommitted transactions ever wrote the
same record concurrently, which is what makes reverse-order physical
undo correct.

The log lives in memory: crashes are simulated inside one process
image.  A real process death needs no undo log — a durable store
(:class:`~repro.subsystems.storage.DurableRecordStore`) is written
only at commit, one redo frame per transaction, so a loser's writes
never reach it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.errors import WalCorruptionError
from repro.subsystems.storage import RecordStore


class WalKind(enum.Enum):
    WRITE = "write"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class WalRecord:
    """One log record."""

    lsn: int
    txn_id: int
    kind: WalKind
    key: str = ""
    before: object = None


class WriteAheadLog:
    """An append-only undo log."""

    def __init__(self) -> None:
        self._records: list[WalRecord] = []
        self._lsns = itertools.count(1)

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def _append(self, record: WalRecord) -> None:
        self._records.append(record)

    def log_write(self, txn_id: int, key: str, before: object) -> int:
        """Record a before-image; returns the LSN."""
        record = WalRecord(
            lsn=next(self._lsns),
            txn_id=txn_id,
            kind=WalKind.WRITE,
            key=key,
            before=before,
        )
        self._append(record)
        return record.lsn

    def log_commit(self, txn_id: int) -> int:
        record = WalRecord(
            lsn=next(self._lsns), txn_id=txn_id, kind=WalKind.COMMIT
        )
        self._append(record)
        return record.lsn

    def log_abort(self, txn_id: int) -> int:
        record = WalRecord(
            lsn=next(self._lsns), txn_id=txn_id, kind=WalKind.ABORT
        )
        self._append(record)
        return record.lsn

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[WalRecord]:
        return list(self._records)

    def losers(self) -> set[int]:
        """Transactions with logged writes but no terminal record."""
        terminated = {
            record.txn_id
            for record in self._records
            if record.kind is not WalKind.WRITE
        }
        return {
            record.txn_id
            for record in self._records
            if record.kind is WalKind.WRITE
            and record.txn_id not in terminated
        }

    def __len__(self) -> int:
        return len(self._records)


def validate_wal(wal: WriteAheadLog) -> None:
    """Structural validation of a WAL before it is trusted for undo.

    Raises :class:`~repro.errors.WalCorruptionError` on records that
    can only come from a damaged log: wrong types, non-positive or
    non-increasing LSNs, or write records without a key.
    """
    last_lsn = 0
    for record in wal.records:
        if not isinstance(record, WalRecord):
            raise WalCorruptionError(
                f"not a WAL record: {record!r}"
            )
        if not isinstance(record.kind, WalKind):
            raise WalCorruptionError(
                f"record {record.lsn} has unknown kind "
                f"{record.kind!r}"
            )
        if not isinstance(record.lsn, int) or record.lsn <= last_lsn:
            raise WalCorruptionError(
                f"LSN {record.lsn!r} after {last_lsn} breaks the "
                "append order"
            )
        if not isinstance(record.txn_id, int) or record.txn_id <= 0:
            raise WalCorruptionError(
                f"record {record.lsn} has bad transaction id "
                f"{record.txn_id!r}"
            )
        if record.kind is WalKind.WRITE and not record.key:
            raise WalCorruptionError(
                f"write record {record.lsn} carries no key"
            )
        last_lsn = record.lsn


def recover_store(store: RecordStore, wal: WriteAheadLog) -> int:
    """Undo every loser transaction's writes; returns the undo count.

    The log is structurally validated first — a malformed record
    surfaces as a typed :class:`~repro.errors.WalCorruptionError`
    instead of whatever exception the undo loop would have tripped
    over.  Before-images are then applied in reverse LSN order, and an
    abort record is logged for each loser so the log reaches a
    terminal state for every transaction.
    """
    validate_wal(wal)
    losers = wal.losers()
    undone = 0
    for record in reversed(wal.records):
        if record.kind is WalKind.WRITE and record.txn_id in losers:
            store.write(record.key, record.before)
            undone += 1
    for txn_id in sorted(losers):
        wal.log_abort(txn_id)
    return undone
