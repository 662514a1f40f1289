"""Process execution instances (paper Definition 2).

A :class:`Process` is the execution of a process program: it walks the
program tree, keeps the ledger of executed activities, tracks the scope
stack opened by committed points of no return, plans compensation runs when
activities fail or the process is aborted by the protocol, and owns the
process state machine.

The class is purely a *model*: it never blocks, samples randomness, or
talks to the lock manager — those concerns live in
:mod:`repro.scheduler.manager`.  This keeps the execution semantics
independently testable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.activities.activity import Activity
from repro.errors import ProcessProgramError, ProcessStateError, SchedulerError
from repro.process.program import ProcessProgram, ProgramNode
from repro.process.state import ProcessState, check_transition

#: :attr:`ProcessState.is_active`, without its property call.
_ACTIVE = (ProcessState.RUNNING, ProcessState.COMPLETING)


class Resolution(enum.Enum):
    """How a failed activity is resolved (paper Section 2.2)."""

    RETRY = "retry"
    ABORT_SUBPROCESS = "abort-subprocess"
    ABORT_PROCESS = "abort-process"


@dataclass
class LedgerEntry:
    """One committed activity of this process execution."""

    activity: Activity
    node: ProgramNode
    compensated: bool = False

    @property
    def compensatable(self) -> bool:
        return self.activity.activity_type.compensatable


@dataclass
class FailurePlan:
    """Compensation work required to resolve a failure or an abort.

    ``compensations`` lists the ledger entries to compensate, already in
    reverse execution order.  For :attr:`Resolution.ABORT_SUBPROCESS`, once
    every compensation committed the manager calls
    :meth:`Process.start_next_branch`.
    """

    resolution: Resolution
    compensations: list[LedgerEntry] = field(default_factory=list)


@dataclass
class _Scope:
    """A failure scope opened by a committed point of no return."""

    node: ProgramNode
    branch_index: int
    ledger_start: int


class Process:
    """Execution state of one process (one incarnation).

    Parameters
    ----------
    pid:
        Process identifier; stable across resubmissions.
    program:
        The process program being executed.
    timestamp:
        Unique protocol timestamp, assigned at (first) initiation and kept
        across resubmissions to avoid starvation.
    incarnation:
        0 for the first submission, incremented by :meth:`resubmit`.
    """

    def __init__(
        self,
        pid: int,
        program: ProcessProgram,
        timestamp: int,
        incarnation: int = 0,
    ) -> None:
        self.pid = pid
        self.program = program
        self.timestamp = timestamp
        self.incarnation = incarnation
        self.state = ProcessState.RUNNING
        self.ledger: list[LedgerEntry] = []
        #: Worst-case cost accumulated so far (Equation 1); maintained by
        #: the cost-based scheduler via :meth:`charge_wcc`.
        self.wcc: float = 0.0
        self._seq = 0
        self._scopes: list[_Scope] = []
        self._current: ProgramNode | None = program.root
        self._to_launch: list[str] = list(program.root.activities)
        self._outstanding = 0
        self._node_commits = 0
        self._unwinding = False
        self._committed_pnr_count = 0

    # ------------------------------------------------------------------
    # identity & bookkeeping
    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple[int, int]:
        """Schedule-level identity: ``(pid, incarnation)``.

        A resubmitted execution is formally a new process that happens to
        share the original's timestamp, so correctness checking treats the
        incarnations as distinct processes.
        """
        return (self.pid, self.incarnation)

    @property
    def registry(self):
        return self.program.registry

    def resubmit(self) -> "Process":
        """Create the next incarnation after a protocol-induced abort.

        The new instance keeps the pid and — crucially — the original
        timestamp, the paper's starvation-avoidance measure.
        """
        if self.state is not ProcessState.ABORTED:
            raise ProcessStateError(
                f"P{self.pid}: only aborted processes can be resubmitted "
                f"(state is {self.state.value})"
            )
        return Process(
            pid=self.pid,
            program=self.program,
            timestamp=self.timestamp,
            incarnation=self.incarnation + 1,
        )

    def charge_wcc(self, amount: float) -> None:
        """Add ``c(a) + c(a⁻¹)`` to the worst-case cost (Equation 2)."""
        self.wcc += amount

    # ------------------------------------------------------------------
    # forward execution
    # ------------------------------------------------------------------
    def ready_activities(self) -> list[str]:
        """Activity type names ready to be launched right now."""
        if self._unwinding or not self.state.is_active:
            return []
        return list(self._to_launch)

    def launch(self, name: str) -> Activity:
        """Mark ``name`` as launched and mint its activity invocation."""
        if name not in self._to_launch:
            raise SchedulerError(
                f"P{self.pid}: activity {name!r} is not ready to launch"
            )
        self._to_launch.remove(name)
        self._outstanding += 1
        activity = Activity(
            activity_type=self.registry.get(name),
            process_id=self.pid,
            seq=self._next_seq(),
        )
        return activity

    def on_committed(self, activity: Activity) -> bool:
        """Record a committed regular activity; advance when node done.

        Returns
        -------
        bool
            ``True`` iff this commit was a point of no return that moved
            the process from *running* to *completing* (the primary
            pivot) — the caller must then inform the lock manager.
        """
        if self._current is None:
            raise SchedulerError(
                f"P{self.pid}: commit of {activity} with no current node"
            )
        node = self._current
        self.ledger.append(LedgerEntry(activity=activity, node=node))
        self._outstanding -= 1
        self._node_commits += 1
        became_completing = False
        if self._node_commits == len(node.activities):
            became_completing = self._advance(node)
        return became_completing

    def _advance(self, finished: ProgramNode) -> bool:
        """Move past ``finished``; open a scope on points of no return."""
        became_completing = False
        if self.program.is_point_of_no_return(finished):
            self._committed_pnr_count += 1
            self._scopes.append(
                _Scope(
                    node=finished,
                    branch_index=0,
                    ledger_start=len(self.ledger),
                )
            )
            if self.state is ProcessState.RUNNING:
                check_transition(self.state, ProcessState.COMPLETING)
                self.state = ProcessState.COMPLETING
                became_completing = True
        self._enter(finished.children[0] if finished.children else None)
        return became_completing

    def _enter(self, node: ProgramNode | None) -> None:
        self._current = node
        self._node_commits = 0
        self._to_launch = list(node.activities) if node is not None else []

    def abandon(self, activity: Activity) -> None:
        """Withdraw a launched activity that will never commit.

        Used when the process is chosen as a cascade victim (its in-flight
        activities and parked lock requests are cancelled) and when a
        parallel-node failure cancels parked sibling requests.
        """
        if self._outstanding <= 0:
            raise SchedulerError(
                f"P{self.pid}: abandon({activity}) with no outstanding "
                "activities"
            )
        self._outstanding -= 1

    @property
    def finished(self) -> bool:
        """Whether the program ran to its end (ready to commit)."""
        return (
            self._current is None
            and self._outstanding == 0
            and not self._unwinding
            and self.state.is_active
        )

    def may_still_request(self, plane) -> int:
        """Bitmask (dense type ids of ``plane``) of the activity types
        this incarnation may still ask a lock for — static and
        node-granular: the subtree of its current node plus the later
        alternatives of its open pivots; its whole program while it is
        aborting (what it undoes, and restarts as); nothing once it has
        run to its end.
        """
        masks = self.program.request_masks(plane)
        if self.state not in _ACTIVE:  # the restart gate's hot path
            return masks.whole
        if self._current is None:
            return 0
        mask = masks.subtree[self._current.node_id]
        for scope in self._scopes:
            for later in scope.node.children[scope.branch_index + 1:]:
                mask |= masks.subtree[later.node_id]
        return mask

    @property
    def outstanding(self) -> int:
        """Number of launched-but-unresolved activities."""
        return self._outstanding

    @property
    def unwinding(self) -> bool:
        """Whether a compensation run is pending for this process."""
        return self._unwinding

    @property
    def committed_points_of_no_return(self) -> int:
        return self._committed_pnr_count

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def on_failed(self, activity: Activity) -> FailurePlan:
        """Resolve the failure of a launched regular activity.

        Retriable activities simply retry.  Otherwise the innermost failure
        scope aborts: its executed activities are compensated in reverse
        order and, when the scope belongs to a committed pivot, the next
        ⊲-alternative is tried; with no committed point of no return the
        whole process aborts (intrinsic abort).
        """
        if activity.activity_type.retriable:
            return FailurePlan(resolution=Resolution.RETRY)
        self._outstanding -= 1
        if self._outstanding > 0:
            raise SchedulerError(
                f"P{self.pid}: failure resolution requested while "
                f"{self._outstanding} sibling activities are in flight; "
                "the manager must drain the parallel node first"
            )
        if self._scopes:
            scope = self._scopes[-1]
            if scope.branch_index + 1 >= len(scope.node.children):
                raise ProcessProgramError(
                    f"P{self.pid}: the assured branch of pivot "
                    f"{scope.node} failed; the program violates "
                    "guaranteed termination"
                )
            self._unwinding = True
            return FailurePlan(
                resolution=Resolution.ABORT_SUBPROCESS,
                compensations=self._compensation_plan(scope.ledger_start),
            )
        self._unwinding = True
        self.begin_abort()
        return FailurePlan(
            resolution=Resolution.ABORT_PROCESS,
            compensations=self._compensation_plan(0),
        )

    def plan_protocol_abort(self) -> FailurePlan:
        """Plan the abort of this (running) process on behalf of the protocol.

        Used for cascading aborts and timestamp-order violations.  Only
        running processes can be aborted this way; completing processes are
        shielded by the protocol itself.
        """
        if self.state is not ProcessState.RUNNING:
            raise ProcessStateError(
                f"P{self.pid}: protocol abort requested in state "
                f"{self.state.value}; only running processes are abortable"
            )
        if self._outstanding > 0:
            raise SchedulerError(
                f"P{self.pid}: protocol abort requested while "
                f"{self._outstanding} activities are in flight"
            )
        self._unwinding = True
        self.begin_abort()
        return FailurePlan(
            resolution=Resolution.ABORT_PROCESS,
            compensations=self._compensation_plan(0),
        )

    def _compensation_plan(self, ledger_start: int) -> list[LedgerEntry]:
        plan = [
            entry
            for entry in reversed(self.ledger[ledger_start:])
            if not entry.compensated and not entry.activity.is_compensation
        ]
        for entry in plan:
            if not entry.compensatable:
                raise SchedulerError(
                    f"P{self.pid}: compensation plan includes the "
                    f"non-compensatable activity {entry.activity}; a "
                    "point of no return leaked into an abortable scope"
                )
        return plan

    def resume_abort_plan(self) -> FailurePlan:
        """Remaining compensations of an interrupted abort (recovery).

        A crashed process manager finds aborting processes mid-way
        through their abort-process execution; the plan below finishes
        the job (compensations are idempotent at the ledger level: only
        uncompensated entries are included).
        """
        if self.state is not ProcessState.ABORTING:
            raise ProcessStateError(
                f"P{self.pid}: resume_abort_plan() in state "
                f"{self.state.value}"
            )
        self._unwinding = True
        return FailurePlan(
            resolution=Resolution.ABORT_PROCESS,
            compensations=self._compensation_plan(0),
        )

    def resume_subprocess_plan(self) -> FailurePlan:
        """Remaining compensations of an interrupted alternative abort."""
        if not self._scopes or not self._unwinding:
            raise ProcessStateError(
                f"P{self.pid}: resume_subprocess_plan() without an "
                "interrupted subprocess abort"
            )
        return FailurePlan(
            resolution=Resolution.ABORT_SUBPROCESS,
            compensations=self._compensation_plan(
                self._scopes[-1].ledger_start
            ),
        )

    def make_compensation(self, entry: LedgerEntry) -> Activity:
        """Mint the compensating activity ``a⁻¹`` for a ledger entry."""
        comp_type = self.registry.compensation_of(entry.activity.name)
        return Activity(
            activity_type=comp_type,
            process_id=self.pid,
            seq=self._next_seq(),
            compensates=entry.activity.uid,
        )

    def on_compensated(self, entry: LedgerEntry, activity: Activity) -> None:
        """Record the committed compensation of ``entry``."""
        if activity.compensates != entry.activity.uid:
            raise SchedulerError(
                f"P{self.pid}: compensation {activity} does not match "
                f"ledger entry {entry.activity}"
            )
        entry.compensated = True
        self.ledger.append(LedgerEntry(activity=activity, node=entry.node))

    def start_next_branch(self) -> None:
        """After a subprocess abort, move to the pivot's next alternative."""
        if not self._unwinding or not self._scopes:
            raise SchedulerError(
                f"P{self.pid}: start_next_branch() without a pending "
                "subprocess abort"
            )
        scope = self._scopes[-1]
        scope.branch_index += 1
        scope.ledger_start = len(self.ledger)
        self._unwinding = False
        self._enter(scope.node.children[scope.branch_index])

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def begin_abort(self) -> None:
        check_transition(self.state, ProcessState.ABORTING)
        self.state = ProcessState.ABORTING
        self._to_launch = []
        self._current = None

    def finish_abort(self) -> None:
        check_transition(self.state, ProcessState.ABORTED)
        self.state = ProcessState.ABORTED
        self._unwinding = False

    def finish_commit(self) -> None:
        if not self.finished:
            raise ProcessStateError(
                f"P{self.pid}: commit requested before the program finished"
            )
        check_transition(self.state, ProcessState.COMMITTED)
        self.state = ProcessState.COMMITTED

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Process(P{self.pid}.{self.incarnation} ts={self.timestamp} "
            f"{self.state.value} wcc={self.wcc:g})"
        )
