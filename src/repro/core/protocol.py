"""The process locking protocol (paper Section 3) with the cost-based
extension (Section 4).

:class:`ProcessLockManager` evaluates lock requests against the ordered
lock table and returns :mod:`~repro.core.decisions` objects; the process
manager (:mod:`repro.scheduler.manager`) executes the resulting aborts,
parks deferred requests, and retries them as processes terminate.

Rule summary (Sections 3.2.3 and 4):

Comp-Rule
    C locks share behind older holders (C or P).  Younger running
    C-holders are cascade-aborted; younger aborting holders are waited
    for; a younger P-holder or a younger completing C-holder defers the
    request until that process commits.  A *completing* requester is
    first-class: it aborts any running conflicting holder, old or young.
Piv-Rule and Comp→Piv-Rule
    A pivot needs every C lock of its process converted to P first; the
    conversion and the new P lock follow the same conditions: grant only
    if no conflicting lock remains — older holders and conflicting P locks
    defer the request, younger running C-holders are aborted.  At most one
    process may hold pivot (point-of-no-return) P locks at a time: the
    *completing token* serializes real completions.
C⁻¹-Rule
    Compensation takes a C lock for ``a⁻¹``; every running process holding
    a conflicting lock positioned *after* the original activity's lock is
    cascade-aborted (this is the cascading-abort mechanism); aborting ones
    are waited for.
Abort-Rule
    All locks released once the abort-process execution completed.
Commit-Rule
    Commit is deferred while any of the process's locks is on hold behind
    another live process (strict two-phase locking at process level).

Deviations from the letter of the paper, chosen deliberately and
documented in DESIGN.md:

* requests never share behind an *aborting* older holder — they wait for
  the abort to finish instead of acquiring a lock that the C⁻¹-Rule would
  immediately revoke;
* P-lock requests follow the *literal* Piv-Rule deferment by default:
  they wait while **any** other process holds a P lock, pseudo pivots
  included, which serializes protected/completing processes globally and
  excludes wait cycles among them (``global_p_deferment=False`` selects
  the scoped-ablation reading — conflicting P locks only — whose cycles
  are then broken by :mod:`repro.core.deadlock`);
* the completing requester wounds *older* running C-holders too (the
  paper's first-class treatment) but defers on pseudo-pivot P-holders,
  preserving cost-based cascade protection; deadlock resolution prefers
  unprotected victims.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.activities.activity import Activity
from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.decisions import (
    AbortVictims,
    Decision,
    Defer,
    Grant,
)
from repro.core.cost_based import WccMemo
from repro.core.lock_table import LockTable
from repro.core.locks import LockEntry, LockMode
from repro.core.rules import HolderPartition, partition_holders
from repro.errors import ProtocolError
from repro.obs.metrics import MetricsTracer
from repro.obs.events import ActivityClassified, LockConverted
from repro.process.instance import Process
from repro.process.state import ProcessState


class ProcessLockManager:
    """Process-locking decision engine over an ordered-shared lock table.

    Parameters
    ----------
    registry:
        Activity catalogue (termination properties and costs).
    conflicts:
        The type-level commutativity relation ``CON``.
    cost_based:
        Enable the Section-4 extension (worst-case-cost thresholds and
        pseudo pivots).  When off, only real points of no return take
        P locks, reproducing the basic Section-3 protocol.
    global_p_deferment:
        Literal Piv-Rule deferment ("any other process holds a P lock");
        disable for the scoped-ablation reading (conflicting P locks
        only).
    """

    def __init__(
        self,
        registry: ActivityRegistry,
        conflicts: ConflictMatrix,
        cost_based: bool = True,
        global_p_deferment: bool = True,
    ) -> None:
        self.registry = registry
        self.conflicts = conflicts
        self.cost_based = cost_based
        #: Literal Piv-Rule reading: defer a P request while ANY other
        #: process holds a P lock.  The scoped alternative (defer only on
        #: conflicting P locks) is kept as an ablation; it admits wait
        #: cycles among cost-protected processes.
        self.global_p_deferment = global_p_deferment
        self.table = LockTable(conflicts)
        #: Where events go; the manager installs its own tracer here.
        #: Decision outcomes (grant/defer/cascade) are traced by the
        #: manager, which knows the request context; the protocol itself
        #: only emits what the manager cannot see: Figure-1
        #: classifications and in-place Comp→Piv lock conversions.
        self.tracer = MetricsTracer()
        self._timestamps = itertools.count(1)
        self._processes: dict[int, Process] = {}
        self._token_owner: int | None = None
        #: Memoized Figure-1 charge inputs (see :class:`WccMemo`).
        self._wcc_memo = WccMemo(registry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def new_timestamp(self) -> int:
        """Draw the next timestamp from the strictly increasing series."""
        return next(self._timestamps)

    def ensure_timestamp_floor(self, floor: int) -> None:
        """Never issue timestamps ≤ ``floor`` (used by crash recovery).

        Recovered processes keep their pre-crash timestamps; fresh
        submissions must stay strictly younger.
        """
        self._timestamps = itertools.count(
            max(floor + 1, next(self._timestamps))
        )

    def attach(self, process: Process) -> None:
        """Start tracking a (re)submitted process."""
        self._processes[process.pid] = process

    def detach(self, process: Process) -> None:
        """Stop tracking a terminated process and release its locks.

        Implements the Abort-Rule's lock release and the release half of
        the Commit-Rule.
        """
        self.table.release_all(process.pid)
        if self._token_owner == process.pid:
            self._token_owner = None
        self._processes.pop(process.pid, None)

    @property
    def completing_token_owner(self) -> int | None:
        """Pid of the process holding the one-completing-process token."""
        return self._token_owner

    def live_processes(self) -> list[Process]:
        return list(self._processes.values())

    def restore_grant(
        self,
        process: Process,
        type_name: str,
        mode: LockMode,
        activity_uid: int | None,
    ) -> LockEntry:
        """Re-acquire a lock unconditionally (crash recovery only).

        The pre-crash lock state was produced by the rules and is
        therefore consistent; recovery replays it in the original
        sharing order without re-evaluating the rules.  A P lock on a
        point-of-no-return type restores the completing token.
        """
        entry = self.table.acquire(process, type_name, mode, activity_uid)
        if (
            mode is LockMode.P
            and self.registry.get(type_name).point_of_no_return
        ):
            self._token_owner = process.pid
        return entry

    # ------------------------------------------------------------------
    # Figure 1: dynamic pivot determination
    # ------------------------------------------------------------------
    def classify_regular(
        self, process: Process, activity: Activity
    ) -> LockMode:
        """Decide C vs P treatment for a regular activity (Figure 1).

        Charges ``c(a) + c(a⁻¹)`` to the process's worst-case cost
        *before* the treatment decision, per Equation 2; a real point of
        no return contributes an infinite addend and therefore always
        trips the threshold (Lemma 1).
        """
        charge, real_pivot = self._wcc_memo.lookup(activity.name)
        process.charge_wcc(charge)
        threshold = process.program.wcc_threshold
        pseudo_pivot = (
            not real_pivot
            and self.cost_based
            and process.wcc >= threshold
        )
        mode = (
            LockMode.P if real_pivot or pseudo_pivot else LockMode.C
        )
        self.tracer.emit(
            # One per activity launched: positional, and the mode's
            # ``_value_`` (``.value`` is an Enum property call).
            ActivityClassified(
                process.pid,
                process.incarnation,
                activity.name,
                mode._value_,
                process.wcc,
                threshold,
                pseudo_pivot,
                real_pivot,
            )
        )
        return mode

    # ------------------------------------------------------------------
    # lock requests
    # ------------------------------------------------------------------
    def request_activity_lock(
        self, process: Process, activity: Activity, mode: LockMode
    ) -> Decision:
        """Comp-Rule or Piv-Rule for a regular activity."""
        self._require_active(process)
        if mode is LockMode.C:
            return self._comp_rule(process, activity)
        return self._piv_rule(process, activity)

    def request_compensation_lock(
        self, process: Process, activity: Activity
    ) -> Decision:
        """C⁻¹-Rule: lock ``a⁻¹`` before compensating ``a``."""
        if activity.compensates is None:
            raise ProtocolError(
                f"{activity} is not a compensating activity"
            )
        original = self.table.entry_for_activity(
            process.pid, activity.compensates
        )
        if original is None:
            raise ProtocolError(
                f"P{process.pid}: no lock found for compensated "
                f"activity uid {activity.compensates}; locks must be "
                "held until the end of the abort (strict 2PL)"
            )
        conflicting = [
            entry
            for entry in self.table.conflicting_locks(
                activity.name, exclude_pid=process.pid
            )
            if entry.position > original.position
        ]
        partition = partition_holders(process, conflicting)
        victims = (
            partition.younger_running_c
            | partition.younger_running_p
            | partition.older_running
        )
        if partition.younger_completing:
            # Theorem 1's argument rules this out for the basic protocol;
            # defer defensively instead of crashing.
            return self._defer(
                process,
                partition.younger_completing,
                "compensation-blocked-by-completing",
            )
        if victims:
            return self._cascade(victims)
        if partition.aborting:
            return self._defer(
                process, partition.aborting, "wait-aborting"
            )
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    # ------------------------------------------------------------------
    # batch probe: residue of the removed thread-per-shard manager,
    # pinned by bench/ (bench/tracing.py hooks both names), goes with
    # ROADMAP 2(a)
    # ------------------------------------------------------------------
    def probe_c_grants(
        self, process: Process, type_names: Sequence[str]
    ) -> dict[str, bool]:
        """Read-only Comp-Rule verdicts for a batch of C requests.

        For a RUNNING requester, :meth:`_comp_rule` grants a C lock
        exactly when every foreign conflicting holder is strictly older
        *and* not aborting — younger holders defer or cascade, aborting
        holders are waited for.  This probe evaluates that condition per
        type name without building the holder partition or mutating any
        state, so shard workers may run it concurrently with each other
        (the coordinator blocks while they do, and applies the grants
        itself, in declaration order).

        Verdicts are only meaningful while no protocol state mutates
        between probe and grant — the batch fast path's contract; a
        process's *own* C acquisitions do not invalidate them (the scan
        excludes the requester's pid).
        """
        running = process.state is ProcessState.RUNNING
        return {
            type_name: running and self._probe_one(process, type_name)
            for type_name in type_names
        }

    def _probe_one(self, process: Process, type_name: str) -> bool:
        """One read-only Comp-Rule verdict (see :meth:`probe_c_grants`)."""
        return not self.table.probe_blocked(
            type_name,
            process.pid,
            process.timestamp,
            ProcessState.ABORTING,
        )

    def grant_c_direct(
        self, process: Process, activity: Activity
    ) -> Grant:
        """Acquire a probed C lock without re-scanning the holders.

        Valid only immediately after :meth:`probe_c_grants` said yes for
        ``activity``'s type with no intervening protocol mutation;
        replicates :meth:`_comp_rule`'s grant tail byte for byte.
        """
        self._require_active(process)
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def try_commit(self, process: Process) -> Decision:
        """Commit-Rule: strict release, deferred while locks are on hold."""
        blockers = {
            pid
            for pid in self.table.commit_blockers(process)
            if pid in self._processes
        }
        if blockers:
            return self._defer(process, blockers, "commit-on-hold")
        return Grant()

    # ------------------------------------------------------------------
    # the rules
    # ------------------------------------------------------------------
    def _comp_rule(self, process: Process, activity: Activity) -> Decision:
        # Always in lock-position order: the partition buckets are pid
        # *sets*, and a set of ints iterates by insertion history, so a
        # differently-ordered scan would reorder cascade victims
        # downstream.
        conflicting = self.table.conflicting_locks(
            activity.name, exclude_pid=process.pid
        )
        partition = partition_holders(process, conflicting)
        if process.state is ProcessState.COMPLETING:
            return self._first_class_request(
                process, activity, LockMode.C, partition
            )
        defer_on = (
            partition.younger_running_p | partition.younger_completing
        )
        if defer_on:
            return self._defer(
                process, defer_on, "younger-completing-or-p-holder"
            )
        if partition.younger_running_c:
            return self._cascade(partition.younger_running_c)
        if partition.aborting:
            return self._defer(
                process, partition.aborting, "wait-aborting"
            )
        entry = self.table.acquire(
            process, activity.name, LockMode.C, activity.uid
        )
        return Grant(locks=(entry,))

    def _piv_rule(self, process: Process, activity: Activity) -> Decision:
        real_pivot = activity.activity_type.point_of_no_return
        # Literal Piv-Rule deferment: "if any other process holds a
        # P lock, then the request has to be deferred until these
        # processes have terminated".  This serializes P-lock holders
        # globally — pseudo pivots included — which both enforces the
        # one-completing-process strategy and makes wait cycles among
        # protected processes impossible.
        if self.global_p_deferment:
            other_p_holders = (
                self.table.p_lock_holders() - {process.pid}
            )
            if other_p_holders:
                return self._defer(
                    process, other_p_holders, "other-p-holder"
                )
        if real_pivot and self._token_owner not in (None, process.pid):
            return self._defer(
                process,
                frozenset({self._token_owner}),
                "completing-token",
            )
        # Comp→Piv-Rule: the process's C locks convert alongside the new
        # acquisition, so the conflicting-holder scan covers them all.
        own_c_locks = self.table.c_locks_of(process.pid)
        target_types = [entry.type_name for entry in own_c_locks]
        target_types.append(activity.name)
        conflicting: dict[int, LockEntry] = {}
        for type_name in target_types:
            for entry in self.table.conflicting_locks(
                type_name, exclude_pid=process.pid
            ):
                conflicting[entry.lock_id] = entry
        partition = partition_holders(process, list(conflicting.values()))
        if process.state is ProcessState.COMPLETING:
            return self._first_class_request(
                process, activity, LockMode.P, partition,
                real_pivot=real_pivot,
            )
        defer_on = (
            partition.older_c
            | partition.older_p
            | partition.younger_running_p
            | partition.younger_completing
        )
        if defer_on:
            return self._defer(process, defer_on, "piv-rule-defer")
        if partition.younger_running_c:
            return self._cascade(partition.younger_running_c)
        if partition.aborting:
            return self._defer(
                process, partition.aborting, "wait-aborting"
            )
        return self._grant_p(process, activity, own_c_locks, real_pivot)

    def _first_class_request(
        self,
        process: Process,
        activity: Activity,
        mode: LockMode,
        partition: HolderPartition,
        real_pivot: bool = False,
    ) -> Decision:
        """Requests of the completing process abort running C-holders.

        The completing process is first-class: conflicting running
        C-holders — older or younger — are cascade-aborted rather than
        waited for (Section 3.1, Comp-Rule).  Pseudo-pivot P-holders are
        the one exception: their whole purpose is cascade protection, so
        the completing process defers on them; a resulting wait cycle is
        resolved by the manager, which prefers unprotected victims.
        """
        if partition.younger_completing:
            raise ProtocolError(
                f"two completing processes detected: P{process.pid} and "
                f"{sorted(partition.younger_completing)}"
            )
        pseudo_holders = (
            partition.older_p | partition.younger_running_p
        )
        if pseudo_holders:
            return self._defer(
                process, pseudo_holders, "completing-defers-on-pseudo"
            )
        victims = (
            partition.younger_running_c | partition.older_running_c
        )
        if victims:
            return self._cascade(victims)
        if partition.aborting:
            return self._defer(
                process, partition.aborting, "wait-aborting"
            )
        if mode is LockMode.C:
            entry = self.table.acquire(
                process, activity.name, LockMode.C, activity.uid
            )
            return Grant(locks=(entry,))
        return self._grant_p(
            process,
            activity,
            self.table.c_locks_of(process.pid),
            real_pivot,
        )

    def _grant_p(
        self,
        process: Process,
        activity: Activity,
        own_c_locks: Sequence[LockEntry],
        real_pivot: bool,
    ) -> Grant:
        for entry in own_c_locks:
            entry.upgrade_to_p()
            self.tracer.emit(
                LockConverted(
                    pid=process.pid,
                    type_name=entry.type_name,
                    position=entry.position,
                )
            )
        entry = self.table.acquire(
            process, activity.name, LockMode.P, activity.uid
        )
        if real_pivot:
            self._token_owner = process.pid
        return Grant(locks=(entry,))

    # ------------------------------------------------------------------
    # decision helpers
    # ------------------------------------------------------------------
    def _defer(
        self, process: Process, blockers: set[int] | frozenset[int],
        reason: str,
    ) -> Defer:
        return Defer(wait_for=frozenset(blockers), reason=reason)

    def _cascade(self, victims: set[int]) -> AbortVictims:
        running = {
            pid
            for pid in victims
            if self._processes.get(pid) is not None
            and self._processes[pid].state is ProcessState.RUNNING
        }
        if not running:
            raise ProtocolError(
                f"cascade requested against non-running processes "
                f"{sorted(victims)}"
            )
        return AbortVictims(victims=frozenset(running))

    def _require_active(self, process: Process) -> None:
        if not process.state.is_active:
            raise ProtocolError(
                f"P{process.pid}: regular lock request in state "
                f"{process.state.value}"
            )
        if process.pid not in self._processes:
            raise ProtocolError(
                f"P{process.pid} is not attached to the lock manager"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
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

    def audit(self) -> None:
        """Assert structural invariants of the lock table.

        Deadlock freedom of the basic protocol is asserted separately:
        the manager counts cycle victims, and experiment E5 (plus the
        liveness tests) checks the count stays zero when the cost-based
        extension is off.
        """
        self.table.check_invariants(self._processes)
