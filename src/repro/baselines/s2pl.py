"""Strict two-phase locking with exclusive activity-type locks.

The paper's Section 1 strawman: because activities are semantic black
boxes, a shared/exclusive distinction is unavailable and every activity
lock must be exclusive.  Combined with strict 2PL this serializes every
pair of conflicting processes for their entire lifetime — the concurrency
loss process locking was designed to avoid.

Deadlock handling is timestamp-based, in one of two variants:

* ``"wound-wait"`` (default): an older requester *wounds* (aborts) younger
  running holders, which are resubmitted with their original timestamps;
  a younger requester waits for older holders.  Waits point young→old, so
  cycles among running processes cannot form.
* ``"wait-die"``: a younger requester dies (aborts itself) when blocked by
  an older holder, an older requester waits for younger holders.  Classic,
  but in a discrete-event setting the repeated die/retry loop burns many
  resubmissions; kept for comparison.

S2PL has no notion of pivot protection: *completing* processes (past their
point of no return) can be blocked by — and can deadlock with — other
completing processes.  They can be neither wounded nor died; such requests
wait, and genuinely unresolvable cycles are escalated to the manager's
forced-progress path and counted as violations.  This weakness is part of
what the paper's protocol fixes.
"""

from __future__ import annotations

from repro.activities.activity import Activity
from repro.baselines.base import BaselineProtocol
from repro.core.decisions import (
    AbortVictims,
    Decision,
    Defer,
    Grant,
    SelfAbort,
)
from repro.core.locks import LockMode
from repro.errors import ProtocolError
from repro.process.instance import Process
from repro.process.state import ProcessState


class StrictTwoPhaseLocking(BaselineProtocol):
    """Exclusive conflict-based activity locks, held to process end."""

    def __init__(
        self, registry, conflicts, variant: str = "wound-wait"
    ) -> None:
        super().__init__(registry, conflicts)
        if variant not in ("wound-wait", "wait-die"):
            raise ProtocolError(
                f"unknown S2PL variant {variant!r}; use 'wound-wait' or "
                "'wait-die'"
            )
        self.variant = variant

    def request_activity_lock(
        self, process: Process, activity: Activity, mode: LockMode
    ) -> Decision:
        conflicting = self.table.conflicting_locks(
            activity.name, exclude_pid=process.pid
        )
        if not conflicting:
            return self._grant(process, activity)
        running = {
            e.pid
            for e in conflicting
            if e.process.state is ProcessState.RUNNING
        }
        unabortable = {
            e.pid for e in conflicting if e.pid not in running
        }
        if self.variant == "wound-wait":
            if process.state is ProcessState.COMPLETING:
                # Cannot be made to wait forever nor abort itself; wound
                # whatever is woundable, wait for the rest.
                if running:
                    return self._wound(running)
                return self._wait(unabortable, "s2pl-completing-wait")
            older_running = {
                pid
                for pid in running
                if self._processes[pid].timestamp < process.timestamp
            }
            younger_running = running - older_running
            if younger_running:
                return self._wound(younger_running)
            return self._wait(
                older_running | unabortable, "s2pl-wait"
            )
        # wait-die
        if process.state is ProcessState.COMPLETING:
            return self._wait(
                running | unabortable, "s2pl-completing-wait"
            )
        older = {
            e.pid
            for e in conflicting
            if e.timestamp < process.timestamp
        }
        if older:
            self.stats.defers += 1
            return SelfAbort(reason="wait-die")
        return self._wait(running | unabortable, "s2pl-wait")

    def request_compensation_lock(
        self, process: Process, activity: Activity
    ) -> Decision:
        """Exclusive lock for the compensation; waits, never aborts.

        Under pure exclusion a conflicting holder cannot normally exist
        while the aborting process still holds the original lock; waits
        here are defensive, and cycles are broken by the manager.
        """
        conflicting = self.table.conflicting_locks(
            activity.name, exclude_pid=process.pid
        )
        if conflicting:
            return self._wait(
                {e.pid for e in conflicting}, "s2pl-compensation-wait"
            )
        return self._grant(process, activity)

    def try_commit(self, process: Process) -> Decision:
        # Nothing is ever shared, so nothing is ever on hold.
        return Grant()

    def force_grant_regular(
        self, process: Process, activity: Activity
    ) -> Decision:
        """Escape hatch for completing-vs-completing deadlocks.

        Grants the lock despite the conflict; the manager counts the
        event as an unresolvable violation.  Process locking never needs
        this — its completing token excludes the situation.
        """
        return self._grant(process, activity)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _grant(self, process: Process, activity: Activity) -> Grant:
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def _wait(self, blockers: set[int], reason: str) -> Defer:
        self.stats.defers += 1
        return Defer(wait_for=frozenset(blockers), reason=reason)

    def _wound(self, victims: set[int]) -> AbortVictims:
        return AbortVictims(victims=frozenset(victims))
