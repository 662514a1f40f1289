"""Shared scaffolding for baseline scheduling protocols.

Baselines implement the same decision interface as
:class:`repro.core.protocol.ProcessLockManager`, so the process manager
can drive any of them unchanged:

* ``new_timestamp() / attach() / detach()``
* ``classify_regular(process, activity) -> LockMode``
* ``request_activity_lock(process, activity, mode) -> Decision``
* ``request_compensation_lock(process, activity) -> Decision``
* ``try_commit(process) -> Decision``
* ``timestamps() / running_pids() / audit()``

and one thing process locking never needs: ``force_progress``, the
choice of which parked request to force when a wait cycle has no
running member left to abort.
"""

from __future__ import annotations

import itertools

from repro.activities.activity import Activity
from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.decisions import Decision
from repro.core.lock_table import LockTable
from repro.core.locks import LockMode
from repro.errors import ProtocolError
from repro.obs.events import ActivityClassified
from repro.obs.metrics import MetricsTracer
from repro.process.instance import Process
from repro.process.state import ProcessState
from repro.scheduler.events import RequestKind


class BaselineProtocol:
    """Common state and helpers for baseline protocols."""

    #: Out-of-order grants :meth:`force_progress` may fall back on:
    #: ``(process, activity) -> Decision`` where a protocol has one.
    force_grant_compensation = None
    force_grant_regular = None

    def __init__(
        self, registry: ActivityRegistry, conflicts: ConflictMatrix
    ) -> None:
        self.registry = registry
        self.conflicts = conflicts
        self.table = LockTable(conflicts)
        #: Where events go, installed by the manager.  Decision outcomes
        #: are traced by the manager itself; baselines only emit their
        #: Figure-1-equivalent classification (so Wcc gauges stay
        #: comparable across protocols) and pure OSL its unresolvable
        #: cascades.
        self.tracer = MetricsTracer()
        self._timestamps = itertools.count(1)
        self._processes: dict[int, Process] = {}

    # ------------------------------------------------------------------
    # lifecycle (identical across baselines)
    # ------------------------------------------------------------------
    def new_timestamp(self) -> int:
        return next(self._timestamps)

    def attach(self, process: Process) -> None:
        self._processes[process.pid] = process

    def detach(self, process: Process) -> None:
        self.table.release_all(process.pid)
        self._processes.pop(process.pid, None)

    def timestamps(self) -> dict[int, int]:
        return {
            pid: proc.timestamp for pid, proc in self._processes.items()
        }

    def running_pids(self) -> set[int]:
        return {
            pid
            for pid, proc in self._processes.items()
            if proc.state is ProcessState.RUNNING
        }

    def live_processes(self) -> list[Process]:
        return list(self._processes.values())

    def audit(self) -> None:
        self.table.check_invariants(self._processes)

    # ------------------------------------------------------------------
    # defaults
    # ------------------------------------------------------------------
    def classify_regular(
        self, process: Process, activity: Activity
    ) -> LockMode:
        """Charge Wcc (for comparable metrics) and pick the lock mode.

        Baselines have no cost-based extension; only real points of no
        return are pivot-treated.
        """
        activity_type = activity.activity_type
        process.charge_wcc(
            activity_type.cost
            + self.registry.compensation_cost(activity_type.name)
        )
        real_pivot = activity_type.point_of_no_return
        mode = LockMode.P if real_pivot else LockMode.C
        self.tracer.emit(
            ActivityClassified(
                pid=process.pid,
                incarnation=process.incarnation,
                activity=activity.name,
                mode=mode.value,
                wcc=process.wcc,
                threshold=process.program.wcc_threshold,
                pseudo_pivot=False,
                real_pivot=real_pivot,
            )
        )
        return mode

    def force_progress(self, cycle, parked):
        """Choose and force the parked request that breaks an
        unresolvable wait cycle — one without a running member to abort.

        Only reachable under pure OSL, whose arrival-order sharing can
        deadlock completing processes against each other and aborting
        processes among themselves, and S2PL (completing against
        completing).  ``parked`` is every parked request in park order.
        Preference: the first parked commit on the cycle (returned with
        ``None``: the manager commits the process, which escapes the
        cycle), else the first compensation, else the first regular
        request this protocol grants out of order (returned with that
        grant).  Each models the consistency violation a real
        deployment would suffer, and the manager counts it as one.
        """
        on_cycle = [r for r in parked if r.process.pid in cycle]
        for request in on_cycle:
            if request.kind is RequestKind.COMMIT:
                return request, None
        for kind, force in (
            (RequestKind.COMPENSATION, self.force_grant_compensation),
            (RequestKind.REGULAR, self.force_grant_regular),
        ):
            if force is None:
                continue
            for request in on_cycle:
                if request.kind is kind:
                    return request, force(request.process, request.activity)
        raise ProtocolError(
            f"unresolvable wait cycle {cycle} with no forcible request"
        )

    # Subclasses must implement:
    def request_activity_lock(
        self, process: Process, activity: Activity, mode: LockMode
    ) -> Decision:
        raise NotImplementedError

    def request_compensation_lock(
        self, process: Process, activity: Activity
    ) -> Decision:
        raise NotImplementedError

    def try_commit(self, process: Process) -> Decision:
        raise NotImplementedError
