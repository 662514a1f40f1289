"""Pure ordered shared locking (Agrawal/El Abbadi) without early
verification.

This is the protocol process locking extends: every lock is ordered shared
in plain arrival order, with no timestamp check and no C/P distinction.
The lock *relinquish rule* is kept — a process cannot commit while any of
its locks is on hold — so correct executions remain correct; but because
nothing stops a process from passing its point of no return while sharing
behind a running peer, two pathologies appear that the paper uses to
motivate process locking:

* **late aborts** — order violations surface only at commit time, after
  the work has been done;
* **unresolvable violations** — a cascading abort reaches a *completing*
  process, which cannot be rolled back; the simulation counts the event
  (a ``lock.unresolvable`` event) and lets the completing process proceed,
  modelling the semantic inconsistency a real deployment would suffer.

Commit-wait cycles among completing processes are likewise unresolvable;
the manager force-commits one participant and counts it.
"""

from __future__ import annotations

from repro.activities.activity import Activity
from repro.baselines.base import BaselineProtocol
from repro.core.decisions import (
    AbortVictims,
    Decision,
    Defer,
    Grant,
)
from repro.core.locks import LockMode
from repro.errors import ProtocolError
from repro.obs.events import UnresolvableCascade
from repro.process.instance import Process
from repro.process.state import ProcessState


class PureOrderedSharedLocking(BaselineProtocol):
    """OSL with lock sharing in arrival order and late validation only."""

    def request_activity_lock(
        self, process: Process, activity: Activity, mode: LockMode
    ) -> Decision:
        # Ordered sharing is unconditional: the request is appended to the
        # lock list behind whatever is there, no questions asked.
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def request_compensation_lock(
        self, process: Process, activity: Activity
    ) -> Decision:
        original = self.table.entry_for_activity(
            process.pid, activity.compensates
        )
        if original is None:
            raise ProtocolError(
                f"P{process.pid}: compensated activity has no lock"
            )
        victims: set[int] = set()
        waits: set[int] = set()
        for entry in self.table.conflicting_locks(
            activity.name, exclude_pid=process.pid
        ):
            if entry.position <= original.position:
                continue
            holder = entry.process
            if holder.state is ProcessState.RUNNING:
                victims.add(holder.pid)
            elif holder.state is ProcessState.ABORTING:
                waits.add(holder.pid)
            else:
                # A completing process shared behind us: it cannot be
                # cascade-aborted.  Report the violation and proceed —
                # exactly the failure mode process locking prevents.
                self.tracer.emit(
                    UnresolvableCascade(
                        pid=process.pid,
                        activity=activity.name,
                        holder=holder.pid,
                    )
                )
        if victims:
            return AbortVictims(victims=frozenset(victims))
        if waits:
            return Defer(
                wait_for=frozenset(waits), reason="wait-aborting"
            )
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def force_grant_compensation(
        self, process: Process, activity: Activity
    ) -> Decision:
        """Grant a compensation lock out of order (unresolvable cycle).

        Pure OSL's arrival-order sharing can produce abort-wait cycles
        that have no correct resolution; the manager escalates here, the
        compensation proceeds despite later conflicting locks, and the
        violation is already counted by the caller.
        """
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def try_commit(self, process: Process) -> Decision:
        """Lock relinquish rule: no release while any lock is on hold."""
        blockers = {
            pid
            for pid in self.table.commit_blockers(process)
            if pid in self._processes
        }
        if blockers:
            return Defer(
                wait_for=frozenset(blockers), reason="commit-on-hold"
            )
        return Grant()
