"""Serial execution: one process at a time.

The simplest correct scheduler — and the degenerate lower bound for every
concurrency experiment.  A single global token admits one process; all
others defer until the owner terminates.
"""

from __future__ import annotations

from repro.activities.activity import Activity
from repro.baselines.base import BaselineProtocol
from repro.core.decisions import Decision, Defer, Grant
from repro.core.locks import LockMode
from repro.process.instance import Process


class SerialScheduler(BaselineProtocol):
    """Global-token scheduler: fully serial process execution."""

    def __init__(self, registry, conflicts) -> None:
        super().__init__(registry, conflicts)
        self._owner: int | None = None

    def _admit(self, process: Process) -> bool:
        if self._owner is None:
            self._owner = process.pid
        return self._owner == process.pid

    def request_activity_lock(
        self, process: Process, activity: Activity, mode: LockMode
    ) -> Decision:
        if not self._admit(process):
            return Defer(
                wait_for=frozenset({self._owner}), reason="serial-token"
            )
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def request_compensation_lock(
        self, process: Process, activity: Activity
    ) -> Decision:
        # Compensation only happens for the token owner (intrinsic abort).
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def try_commit(self, process: Process) -> Decision:
        return Grant()

    def detach(self, process: Process) -> None:
        super().detach(process)
        if self._owner == process.pid:
            self._owner = None
