"""Lock modes and the C/P compatibility matrix (paper Table 2).

Process locking associates locks with *activity types*, not data objects.
Two modes exist:

* **C locks** protect compensatable activities;
* **P locks** protect pivot activities (and activities *treated* like
  pivots by the cost-based extension — pseudo pivots).

Compatibility (Table 2) — ``held`` row, ``acquired`` column:

==========  =========  =========
held \\ acq  C lock     P lock
==========  =========  =========
C lock      ordered    exclusive
P lock      ordered    exclusive
==========  =========  =========

"Ordered shared" means the later lock may coexist with the earlier one but
is *on hold*: the acquisition order constrains execution, further lock
acquisition, and release (the holder cannot commit before the earlier
process terminates).  "Exclusive" combinations can never coexist; the
protocol resolves attempts by aborting the younger running holder or by
deferring the request.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.process.instance import Process


class LockMode(enum.Enum):
    """C (compensatable) or P (pivot) activity-type locks."""

    C = "C"
    P = "P"


_lock_ids = itertools.count(1)


@dataclass(slots=True)
class LockEntry:
    """One granted lock: a list entry of one activity type's lock list.

    Slotted: entries are the single most-allocated record on the lock
    hot path (one per grant), and slots cut the per-instance dict.

    Parameters
    ----------
    process:
        The owning process (carries pid, timestamp, and state).
    type_name:
        The locked activity type.
    mode:
        Current mode; Comp→Piv conversion upgrades C to P in place.
    position:
        Global acquisition sequence number; the sharing order of any two
        locks is the order of their positions.
    activity_uid:
        The activity invocation this lock was acquired for.
    table:
        The owning lock table, when the entry is table-managed; mode
        changes notify it so its mode indexes stay current.
    """

    process: Process
    type_name: str
    mode: LockMode
    position: int
    activity_uid: int | None = None
    converted: bool = False
    lock_id: int = field(default_factory=lambda: next(_lock_ids))
    table: object = field(default=None, repr=False, compare=False)

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def timestamp(self) -> int:
        return self.process.timestamp

    def upgrade_to_p(self) -> None:
        """Comp→Piv conversion of this entry (keeps the sharing position)."""
        if self.mode is LockMode.C:
            self.mode = LockMode.P
            self.converted = True
            if self.table is not None:
                self.table._note_upgrade(self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mode.value}({self.type_name})@"
            f"P{self.pid}#{self.position}"
        )
