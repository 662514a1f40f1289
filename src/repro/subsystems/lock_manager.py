"""Data-level strict two-phase locking for subsystem transactions.

Each transactional subsystem guarantees serializability (CPSR) and
avoidance of cascading aborts (ACA) — the paper assumes exactly this of the
bottom layer (Section 2).  Strict 2PL with shared/exclusive record locks
delivers both: transactions read only committed data and hold every lock to
their end.

Deadlocks are prevented with the *wait-die* scheme [Rosenkrantz et al.]:
a requester may wait only for younger lock holders; an older holder makes
the requester die (abort), to be retried by its caller.  Wait-for edges
therefore always point from older waiters to younger holders, so wait-for
cycles are impossible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import DataDeadlockAvoided, SubsystemWouldBlock


class DataLockMode(enum.Enum):
    """Shared (read) or exclusive (write) record locks."""

    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass(frozen=True)
class _Holder:
    txn_id: int
    timestamp: int
    mode: DataLockMode


class DataLockManager:
    """Record-granularity S/X lock table with wait-die deadlock prevention."""

    def __init__(self) -> None:
        self._locks: dict[str, dict[int, _Holder]] = {}

    def acquire(
        self, txn_id: int, timestamp: int, key: str, mode: DataLockMode
    ) -> None:
        """Acquire (or upgrade to) ``mode`` on ``key`` for ``txn_id``.

        Raises
        ------
        SubsystemWouldBlock
            The request conflicts with younger holders; the caller should
            retry once they release (wait leg of wait-die).
        DataDeadlockAvoided
            The request conflicts with an older holder; the requesting
            transaction must abort (die leg of wait-die).
        """
        holders = self._locks.setdefault(key, {})
        mine = holders.get(txn_id)
        if mine is not None and (
            mine.mode is DataLockMode.EXCLUSIVE
            or mode is DataLockMode.SHARED
        ):
            return  # already strong enough
        blockers = {
            holder
            for holder in holders.values()
            if holder.txn_id != txn_id
            and not _compatible(holder.mode, mode)
        }
        if blockers:
            older = {
                b.txn_id for b in blockers if b.timestamp <= timestamp
            }
            if older:
                raise DataDeadlockAvoided(
                    f"txn {txn_id} dies: {key!r} is held in an "
                    f"incompatible mode by older transactions "
                    f"{sorted(older)}"
                )
            raise SubsystemWouldBlock(
                frozenset(b.txn_id for b in blockers)
            )
        holders[txn_id] = _Holder(txn_id, timestamp, mode)

    def release_all(self, txn_id: int) -> None:
        """Release every lock of ``txn_id`` (commit or abort time)."""
        for key in list(self._locks):
            self._locks[key].pop(txn_id, None)
            if not self._locks[key]:
                del self._locks[key]

    def holders(self, key: str) -> dict[int, DataLockMode]:
        """Current holders of ``key`` and their modes."""
        return {
            holder.txn_id: holder.mode
            for holder in self._locks.get(key, {}).values()
        }

    @property
    def lock_count(self) -> int:
        return sum(len(holders) for holders in self._locks.values())


def _compatible(held: DataLockMode, requested: DataLockMode) -> bool:
    return held is DataLockMode.SHARED and requested is DataLockMode.SHARED
