"""The transactional process manager (PM).

The :class:`ProcessManager` is the paper's top layer: it instantiates
processes from process programs, asks the locking protocol for permission
before invoking each activity, executes the resulting decisions (grant /
defer / cascade-abort / self-abort), drives compensation runs for failed
subprocesses and aborted processes, resubmits cascade victims with their
original timestamps — once no older process would wound them again (the
restart gate in :meth:`ProcessManager._start`) — and records the observed
schedule for the theory oracles.

It is deliberately protocol-agnostic: any object with the
:class:`ProcessLockManager` decision interface can be plugged in, which is
how the baseline protocols (serial, S2PL, pure OSL, ACA) reuse the entire
execution machinery.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
from dataclasses import dataclass

from repro import config as repro_config

from repro.activities.activity import Activity
from repro.core.deadlock import (
    choose_cycle_victim,
    find_wait_cycle,
    has_cycle,
)
from repro.core.cost_based import retry_wcc_charge
from repro.core.decisions import (
    AbortVictims,
    Decision,
    Defer,
    Grant,
    SelfAbort,
)
from repro.core.locks import LockMode
from repro.errors import ProtocolError, SchedulerError, StarvationError
from repro.obs.metrics import EventMetrics, MetricsTracer
from repro.obs.events import (
    ActivityCancelled,
    ActivityCommitted,
    ActivityFailed,
    ActivityRetried,
    ActivityStarted,
    AbortBegun,
    CascadeRequested,
    DeadlockVictim,
    Holder,
    LockDeferred,
    LockGranted,
    ProcessAborted,
    ProcessCancelled,
    ProcessCommitted,
    ProcessHeld,
    ProcessInitiated,
    ProcessResubmitted,
    ProcessStarved,
    ProcessSubmitted,
    RetryBudgetExhausted,
    SelfAbortDecision,
    UnresolvableForced,
    WaitEdge,
    rule_for_reason,
)
from repro.process.instance import (
    FailurePlan,
    Process,
    Resolution,
)
from repro.process.program import ProcessProgram
from repro.process.state import ProcessState
from repro.scheduler.engine import SimulationEngine
from repro.scheduler.events import (
    CompensationRun,
    InflightActivity,
    ParkedRequest,
    ProcessRecord,
    RequestKind,
    ScheduledStart,
    by_outcome,
)
from repro.scheduler.trace import TraceRecorder
from repro.subsystems.subsystem import SubsystemPool

#: Wake-up drains that may nest before a termination only queues its
#: waiters for an enclosing drain.  Each level costs six Python frames;
#: the golden points and 16-process bursts nest 7 deep, 150-400-process
#: runs 49-78, and the interpreter's stack gives out near 165
#: (DESIGN.md §7).
_MAX_NESTED_DRAINS = 96

#: A :class:`ScheduledStart`'s process (``None`` while pending).
_START_PROCESS = operator.attrgetter("process")


@dataclass
class ManagerConfig:
    """Tunables of the process manager."""

    #: Resubmissions per process before it ends ``starved``.
    max_resubmissions: int = 500
    #: Virtual-time delay before a cascade victim's restart is tried
    #: (the restart gate may hold it longer).
    resubmit_delay: float = 1.0
    #: Delay before a transiently failed retriable activity is retried.
    retry_delay: float = 1.0
    #: Probability that a retriable activity needs another attempt.
    transient_retry_prob: float = 0.0
    #: Optional retry/backoff policy for retriable activities (see
    #: :mod:`repro.faults.retry`): any object with ``delay_for(n)`` and
    #: ``max_attempts``.  ``None`` keeps the flat ``retry_delay`` with an
    #: unbounded budget (the seed behaviour).  With a policy installed,
    #: every extra attempt also charges the activity's cost to the
    #: process's ``Wcc`` so cost-based protection sees retry storms.
    retry_policy: object | None = None
    #: Run the protocol's structural audit after every event (slow).
    audit: bool = False
    #: Hard cap on simulation events.
    max_events: int = 1_000_000
    #: Serialize conflicting activity *executions* in lock-sharing order
    #: (models the subsystems' own concurrency control).  Disabling this
    #: is an ablation: overlapping conflicting executions can then commit
    #: against the sharing order and break reducibility.
    gate_conflicting_executions: bool = True
    #: Prefer deadlock-cycle victims that hold no P locks (honours
    #: pseudo-pivot protection).  Disabling is an ablation.
    prefer_unprotected_victims: bool = True
    #: Durable storage facade (:class:`repro.storage.Store`) backing
    #: the subsystem pool's WALs and record stores.
    #: :func:`make_manager` attaches it to the pool; with ``None`` and
    #: the ``REPRO_STORE`` knob set, a store is opened ambiently (at a
    #: temp path unless ``REPRO_STORE_PATH`` names one), which is how
    #: the whole test suite runs durably under ``REPRO_STORE=log``.
    #: Durability never alters scheduling decisions — schedules stay
    #: byte-identical to the in-memory run at the same seed.
    store: object | None = None


@dataclass
class RunResult:
    """Everything a benchmark or test needs after a run."""

    records: dict[int, ProcessRecord]
    #: The manager's counts: the fold over its event stream.
    stats: EventMetrics
    trace: TraceRecorder
    makespan: float

    @property
    def committed_pids(self) -> list[int]:
        return [
            pid
            for pid, record in self.records.items()
            if record.outcome == "committed"
        ]

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.stats.committed / self.makespan

    @property
    def mean_latency(self) -> float:
        latencies = [
            record.latency
            for record in self.records.values()
            if record.latency is not None
        ]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    @property
    def mean_concurrency(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.stats.busy_area / self.makespan


class ProcessManager:
    """Drives concurrent processes through a locking protocol."""

    def __init__(
        self,
        protocol,
        subsystems: SubsystemPool | None = None,
        config: ManagerConfig | None = None,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self.protocol = protocol
        self.subsystems = subsystems
        self.config = config or ManagerConfig()
        #: Where every event goes: the counting fold
        #: (:class:`~repro.obs.metrics.MetricsTracer`), which forwards
        #: to ``tracer`` when one is given.  Its
        #: :class:`~repro.obs.metrics.EventMetrics` is :attr:`stats`.
        self.tracer = MetricsTracer.over(tracer)
        protocol.tracer = self.tracer
        #: Optional fault injector (duck-typed; see
        #: :mod:`repro.faults.injector`).  When attached it may decide
        #: activity outcomes and add execution latency; ``None`` keeps
        #: the manager's own failure sampling untouched.
        self.injector = None
        self.engine = SimulationEngine()
        self.rng = random.Random(seed)
        self.trace = TraceRecorder()
        self.stats = self.tracer.metrics
        self.records: dict[int, ProcessRecord] = {}
        self._pids = itertools.count(1)
        # An undecided pid is in exactly one of ``_starts`` (pending /
        # awaiting-resubmit) and ``_processes``; decided, its record
        # has the outcome.  Everyone else asks the lifecycle read API.
        self._processes: dict[int, Process] = {}
        self._starts: dict[int, ScheduledStart] = {}
        #: The ``awaiting-resubmit`` pids of ``_starts`` held at the
        #: restart gate (their timer has fired) -> the one older pid
        #: each watches, one it was last seen held behind.  A hint for
        #: :meth:`_release_held`, rebuilt by every re-test; what a pid
        #: waits behind is always asked of :meth:`held_behind`.
        self._held: dict[int, int] = {}
        #: Pids decided since :meth:`take_finished` was last called.
        self._finished: list[int] = []
        #: Parked requests keyed by park sequence (insertion-ordered):
        #: the one record of who waits on whom.  The three below index
        #: it; the wait-for relation is read from it, never mirrored.
        self._parked: dict[int, ParkedRequest] = {}
        self._park_seq = itertools.count(1)
        #: pid -> its own parked requests by seq (park-ordered).
        self._parked_of: dict[int, dict[int, ParkedRequest]] = {}
        #: pid -> park seqs of requests waiting on that pid.
        self._wait_index: dict[int, set[int]] = {}
        #: Min-heap of park seqs woken by a termination, pending retry.
        self._wake_pending: list[int] = []
        #: Wake-up drains on the stack (see ``_MAX_NESTED_DRAINS``).
        self._drain_depth = 0
        #: Whether the last deadlock search may have left a cycle
        #: standing: it takes one victim per call, and a second cycle
        #: closed by the same park need not run through the next
        #: parking pid.
        self._cycle_standing = False
        self._inflight: dict[int, InflightActivity] = {}
        #: uid -> uids of flights gated behind it, in the order they were
        #: gated (lock-position order).  Insertion-ordered, not a set:
        #: the order dependents are released in is the order they start
        #: in, and a set of ints iterates by uid *value*.
        self._dependents: dict[int, dict[int, None]] = {}
        self._comp_runs: dict[int, CompensationRun] = {}
        self._stashed_failures: dict[int, Activity] = {}
        # Read without a Python frame: the clock is read on every emit.
        self.tracer.bind_clock(functools.partial(getattr, self.engine, "now"))
        self.tracer.bind_sampler(self._gauge_sample)

    # ------------------------------------------------------------------
    # submission & run loop
    # ------------------------------------------------------------------
    def submit(
        self,
        program: ProcessProgram,
        at: float = 0.0,
        pid: int | None = None,
    ) -> int:
        """Schedule a new process for initiation at virtual time ``at``.

        ``pid`` re-schedules a journaled or crash-imaged submission
        that never reached an outcome under its original pid (clients
        poll by pid); its :class:`ProcessRecord` is kept when present.
        Its ``process.submit`` went out before the crash.
        """
        if pid is None:
            pid = next(self._pids)
            self.records[pid] = ProcessRecord(pid=pid, submitted_at=at)
            self.tracer.emit(ProcessSubmitted(pid=pid))
        elif self.phase(pid) or self.outcome(pid):
            raise SchedulerError(
                f"cannot re-submit process {pid}: it is "
                f"{self.phase(pid) or self.outcome(pid)}"
            )
        elif pid not in self.records:
            self.records[pid] = ProcessRecord(pid=pid, submitted_at=at)
        self._hold_start(pid, program, at)
        return pid

    def _hold_start(self, pid, program, delay, successor=None) -> None:
        """Have the engine start ``pid`` in ``delay``: initiate it, or
        restart ``successor``, a cascade victim's next incarnation."""
        self._starts[pid] = ScheduledStart(
            program,
            self.engine.schedule(delay, lambda: self._start(pid)),
            successor,
        )

    def _start(self, pid: int) -> None:
        start = self._starts[pid]
        process, program = start.process, start.program
        resubmission = process is not None
        if resubmission:
            # Restart gate: a successor re-takes its first locks only
            # once no older process will still ask for a conflicting
            # one and wound it again.  Held, it keeps its place in
            # ``_starts`` (pid, timestamp, ``awaiting-resubmit``) with
            # no lock, no parked request and — its timer has fired —
            # nothing in the engine; :meth:`_release_held` re-tests it.
            behind = self._in_the_way_of(process)
            if behind:
                if pid not in self._held:
                    self.tracer.emit(
                        ProcessHeld(
                            pid=pid,
                            incarnation=process.incarnation,
                            behind=tuple(behind),
                        )
                    )
                self._held[pid] = behind[-1]
                return
            self._held.pop(pid, None)
            self.records[pid].resubmissions += 1
        del self._starts[pid]
        if not resubmission:
            timestamp = self.protocol.new_timestamp()
            process = Process(pid=pid, program=program, timestamp=timestamp)
        self._processes[pid] = process
        self.protocol.attach(process)
        self.tracer.emit(
            ProcessResubmitted(
                pid=pid,
                incarnation=process.incarnation,
                timestamp=process.timestamp,
            )
            if resubmission
            else ProcessInitiated(pid=pid, timestamp=process.timestamp)
        )
        self._step(process)
        self._post_event()

    def held_behind(self, pid: int) -> list[int]:
        """The older pids a held ``pid`` waits behind right now —
        derived from live state on every call, never stored; empty for
        a pid that is not held at the restart gate."""
        if pid not in self._held:
            return []
        return self._in_the_way_of(self._starts[pid].process)

    def _in_the_way_of(self, successor: Process) -> list[int]:
        """The older undecided pids — live, or awaiting their own
        restart — that may still request an activity type conflicting
        with ``successor``'s first lock requests (its root node).

        Only strictly older timestamps count, so waits cannot cycle
        and the oldest undecided pid is never held.
        """
        plane = self.protocol.conflicts.compiled()
        wanted = successor.program.request_masks(plane).root_conflicts
        if not wanted:
            return []
        timestamp = successor.timestamp
        # Successors awaiting restart: the starts with a process, picked
        # out in C (``_starts`` also holds every arrival not yet begun).
        undecided = itertools.chain(
            self._processes.values(),
            filter(None, map(_START_PROCESS, self._starts.values())),
        )
        return sorted(
            process.pid
            for process in undecided
            if process.timestamp < timestamp
            and process.may_still_request(plane) & wanted
        )

    def _release_held(self, shrunk: int) -> None:
        """Re-test the held pids watching ``shrunk``, oldest first, and
        restart those whose gate opened.

        Called where pid ``shrunk`` may request less than before: it
        committed an activity, entered a next branch, or was decided.
        A held pid stays held at least until the one older pid it
        watches gets there, so nobody else needs a look.
        """
        if not self._held:
            return
        starts = self._starts
        watching = [p for p, w in self._held.items() if w == shrunk]
        watching.sort(key=lambda p: starts[p].process.timestamp)
        for pid in watching:
            if pid in self._held:  # not cancelled by a restart above
                self._start(pid)

    def run(self, require_quiescence: bool = True) -> RunResult:
        """Run the simulation to completion and package the results.

        Raises
        ------
        SchedulerError
            If processes remain unterminated after the event queue
            drains, or a pid ended without an outcome — or, as
            :class:`StarvationError`, ``starved``
            (``require_quiescence``) — a liveness failure.
        """
        self.engine.run(max_events=self.config.max_events)
        self.tracer.refresh_gauges()
        groups = by_outcome(self.records) if require_quiescence else {}
        if None in groups:
            raise SchedulerError(
                f"simulation drained with pids {groups[None]} undecided "
                f"(live: {self.undecided()}); "
                f"parked={[str(p) for p in self._parked.values()]}"
            )
        if "starved" in groups:
            raise StarvationError(
                f"pids {groups['starved']} exceeded "
                f"{self.config.max_resubmissions} resubmissions"
            )
        return RunResult(
            records=self.records,
            stats=self.stats,
            trace=self.trace,
            makespan=self.engine.now,
        )

    def adopt_recovered(
        self,
        process: Process,
        abort_then: str | None = None,
        resubmit_in: float | None = None,
    ) -> None:
        """Take over a process restored from a crash journal.

        Completing and running processes resume forward execution;
        aborting processes finish their abort-process execution and
        end as ``abort_then`` says (``aborted`` when the image has no
        such field); completing processes interrupted
        mid-alternative-abort finish compensating and move to the next
        branch; ``resubmit_in`` marks a successor that was awaiting
        its restart.  See :mod:`repro.scheduler.recovery`.  Nothing is
        counted: the pid's events so far went out before the crash.
        """
        pid = process.pid
        if pid not in self.records:
            self.records[pid] = ProcessRecord(
                pid=pid, submitted_at=self.engine.now
            )
        if resubmit_in is not None:
            self._hold_start(pid, process.program, resubmit_in, process)
            return
        self._processes[pid] = process
        self.protocol.attach(process)
        # An interrupted compensation run is registered now (a crash
        # before ``resume`` still finds how it ends), advanced there.
        run = plan = None
        if process.state is ProcessState.ABORTING:
            plan = process.resume_abort_plan()
            then, label = abort_then or "aborted", "protocol-abort:recovery"
        elif process.state is ProcessState.COMPLETING and process.unwinding:
            plan = process.resume_subprocess_plan()
            then, label = "next-branch", "subprocess-abort"
        if plan is not None:
            run = self._comp_runs[pid] = CompensationRun(
                process, list(plan.compensations), then, label
            )

        def resume() -> None:
            if self._processes.get(pid) is not process:
                return
            if run is not None:
                self._advance_compensation(run)
            elif pid not in self._comp_runs:
                self._step(process)
            # else: adopted processes resume via same-time callbacks,
            # and an earlier one cascade-aborted this process before its
            # own fired — that abort owns the process (and its
            # compensation run) now, so this resume stands down.
            self._post_event()

        self.engine.schedule(0.0, resume)

    def cancel(self, pid: int) -> bool:
        """Cancel a submitted process on a client's explicit request.

        Three shapes, mirroring how far the process got — in each the
        pid ends ``cancelled``:

        * **not started** (``pending`` or ``awaiting-resubmit``: the
          engine still holds its start, or the restart gate does) —
          the start is dropped; nothing is held and nothing is left
          to compensate;
        * **running** — aborted through the regular protocol-abort
          machinery (compensations run, locks release, waiters wake)
          but *without* the cascade path's resubmission;
        * **aborting towards a resubmission** — only that is dropped.

        Completing processes and aborts that end the pid anyway are
        past the point of client cancellation, exactly like
        protocol-induced aborts; ``False`` is returned and the process
        finishes on its own.
        """
        not_started = pid in self._starts
        run = self._comp_runs.get(pid)
        resubmitting = run is not None and run.then == "resubmit"
        if not (not_started or resubmitting or self.phase(pid) == "running"):
            return False
        self.tracer.emit(ProcessCancelled(pid=pid, initiated=not not_started))
        if not_started:
            SimulationEngine.cancel(self._starts.pop(pid).handle)
            self._held.pop(pid, None)
            self._decide(pid, "cancelled")
            self._release_held(pid)
        elif resubmitting:
            run.then = "cancelled"
        else:
            self._begin_protocol_abort(pid, "cancel", then="cancelled")
        return True

    # ------------------------------------------------------------------
    # lifecycle read API — the one place a pid's fate is asked about
    # ------------------------------------------------------------------
    def process(self, pid: int) -> Process | None:
        """The incarnation behind an undecided pid: live, or the
        successor it awaits its restart as; ``None`` while pending."""
        start = self._starts.get(pid)
        return start.process if start else self._processes.get(pid)

    def phase(self, pid: int) -> str | None:
        """``pending``, ``running``, ``completing``, ``aborting`` or
        ``awaiting-resubmit``; ``None`` once decided (or unknown)."""
        if pid in self._processes:
            return self._processes[pid].state.value
        if pid not in self._starts:
            return None
        return "awaiting-resubmit" if self.process(pid) else "pending"

    def outcome(self, pid: int) -> str | None:
        """The pid's terminal outcome; ``None`` while undecided."""
        record = self.records.get(pid)
        return record.outcome if record is not None else None

    def undecided(self) -> dict[int, str]:
        """``pid -> phase`` of every submitted pid without an outcome."""
        return {p: self.phase(p) for p in (*self._starts, *self._processes)}

    def take_finished(self) -> list[int]:
        """The pids decided since this was last called, in order."""
        finished, self._finished = self._finished, []
        return finished

    def _decide(self, pid: int, outcome: str) -> None:
        """Record a pid's terminal outcome — the only writer, once."""
        record = self.records[pid]
        if record.outcome is not None:
            raise SchedulerError(f"P{pid}: {outcome} after {record.outcome}")
        record.outcome = outcome
        self._finished.append(pid)

    # ------------------------------------------------------------------
    # forward progress
    # ------------------------------------------------------------------
    def _step(self, process: Process) -> None:
        """Launch ready activities / attempt commit for ``process``."""
        if process.state.is_terminal:
            return
        # Re-read the ready set on every iteration: a lock request can
        # trigger a cascade that loops back and aborts this very process.
        while True:
            ready = process.ready_activities()
            if not ready:
                break
            activity = process.launch(ready[0])
            mode = self.protocol.classify_regular(process, activity)
            self._request_regular(process, activity, mode)
        if process.finished and not self._has_parked_commit(process):
            self._request_commit(process)

    def _request_regular(
        self, process: Process, activity: Activity, mode: LockMode
    ) -> None:
        decision = self.protocol.request_activity_lock(
            process, activity, mode
        )
        self._apply_decision(
            decision,
            ParkedRequest(
                kind=RequestKind.REGULAR,
                process=process,
                activity=activity,
                mode=mode,
                parked_at=self.engine.now,
            ),
        )

    def _request_commit(self, process: Process) -> None:
        decision = self.protocol.try_commit(process)
        self._apply_decision(
            decision,
            ParkedRequest(
                kind=RequestKind.COMMIT,
                process=process,
                parked_at=self.engine.now,
            ),
        )

    def _apply_decision(
        self, decision: Decision, request: ParkedRequest
    ) -> None:
        process = request.process
        self._trace_decision(decision, request)
        if isinstance(decision, Grant):
            self._on_granted(request, decision)
        elif isinstance(decision, Defer):
            request.wait_for = decision.wait_for
            request.reason = decision.reason
            self._park(request)
            self._resolve_wait_cycles(process.pid)
        elif isinstance(decision, AbortVictims):
            # Park the request until the victims' aborts complete, then
            # retry.  A victim counts where its abort begins: one that
            # finalizes at once wakes this request, whose re-asked rule
            # names (and whose nested decision aborts) the rest.
            request.wait_for = decision.victims
            request.reason = "awaiting-cascade"
            self._park(request)
            for victim in decision.victims:
                self._begin_protocol_abort(victim)
            self._resolve_wait_cycles(process.pid)
        elif isinstance(decision, SelfAbort):
            if process.state is not ProcessState.RUNNING:
                raise ProtocolError(
                    f"P{process.pid}: SelfAbort issued to a "
                    f"{process.state.value} process"
                )
            if request.kind is RequestKind.REGULAR:
                process.abandon(request.activity)
            self._begin_protocol_abort(process.pid, cause="self")
        else:  # pragma: no cover - defensive
            raise SchedulerError(f"unknown decision {decision!r}")

    def _on_granted(
        self, request: ParkedRequest, decision: Grant
    ) -> None:
        process = request.process
        if request.kind is RequestKind.COMMIT:
            self._finalize_commit(process)
            return
        activity = request.activity
        assert activity is not None
        entry = decision.locks[0] if decision.locks else None
        flight = InflightActivity(
            process=process,
            activity=activity,
            kind=request.kind,
            started_at=self.engine.now,
            entry=entry,
        )
        if entry is not None:
            plane = self.protocol.conflicts.compiled()
            flight.type_bit = 1 << plane.id_of(activity.name)
        self._inflight[activity.uid] = flight
        self._gate_flight(flight)
        if not flight.gate:
            self._start_flight(flight)

    def _gate_flight(self, flight: InflightActivity) -> None:
        """Order conflicting executions by lock position.

        The subsystems serialize conflicting transactions; the manager
        models this by gating an activity's execution behind every
        granted-but-uncommitted conflicting activity with a smaller lock
        position.  Without the gate, two overlapping conflicting
        activities could commit against the sharing order and break
        reducibility.
        """
        if flight.entry is None:
            return
        if not self.config.gate_conflicting_executions:
            return
        inflight = self._inflight
        if len(inflight) <= 1:
            return
        plane = self.protocol.conflicts.compiled()
        conflict_mask = plane.masks[plane.id_of(flight.activity.name)]
        if not conflict_mask:
            return
        # One AND per inflight pair: a zero ``type_bit`` (no lock entry)
        # can't intersect, and the flight itself fails the strict
        # position test, so neither needs its own guard.
        position = flight.entry.position
        flight_uid = flight.activity.uid
        gate_add = flight.gate.add
        dependents = self._dependents
        for other in inflight.values():
            if (
                conflict_mask & other.type_bit
                and other.entry.position < position
                and not other.cancelled
            ):
                other_uid = other.activity.uid
                gate_add(other_uid)
                waiters = dependents.get(other_uid)
                if waiters is None:
                    dependents[other_uid] = {flight_uid: None}
                else:
                    waiters[flight_uid] = None

    def _start_flight(self, flight: InflightActivity) -> None:
        flight.started = True
        process, activity = flight.process, flight.activity
        self.tracer.emit(
            ActivityStarted(  # positional on the hot emit sites
                process.pid,
                process.incarnation,
                activity.name,
                activity.uid,
                flight.kind is RequestKind.COMPENSATION,
            )
        )
        duration = activity.activity_type.cost
        if self.injector is not None:
            duration += self.injector.latency_for(process, activity)
        if flight.kind is RequestKind.REGULAR:
            self.engine.schedule(
                duration, lambda: self._complete_regular(flight)
            )
        else:
            self.engine.schedule(
                duration, lambda: self._complete_compensation(flight)
            )

    def _release_dependents(self, flight: InflightActivity) -> None:
        for dep_uid in self._dependents.pop(flight.activity.uid, ()):
            dependent = self._inflight.get(dep_uid)
            if dependent is None or dependent.cancelled:
                continue
            dependent.gate.discard(flight.activity.uid)
            if not dependent.gate and not dependent.started:
                self._start_flight(dependent)

    # ------------------------------------------------------------------
    # activity completion
    # ------------------------------------------------------------------
    def _complete_regular(self, flight: InflightActivity) -> None:
        if flight.cancelled:
            return
        process = flight.process
        activity = flight.activity
        activity_type = activity.activity_type
        if activity_type.retriable and self._wants_transient_retry(
            flight
        ):
            # Retriable activities may fail transiently; they are simply
            # retried until they succeed (their lock is already held and
            # the flight stays in place, so gated successors keep
            # waiting).
            flight.attempts += 1
            self.records[process.pid].retries += 1
            self.tracer.emit(
                ActivityRetried(
                    pid=process.pid,
                    activity=activity.name,
                    uid=activity.uid,
                    attempt=flight.attempts,
                )
            )
            self.engine.schedule(
                self._retry_delay(flight) + activity_type.cost,
                lambda: self._complete_regular(flight),
            )
            return
        self._inflight.pop(activity.uid, None)
        self._release_dependents(flight)
        failed = not activity_type.retriable and self._samples_failure(
            process, activity
        )
        event_cls = ActivityFailed if failed else ActivityCommitted
        self.tracer.emit(
            event_cls(
                process.pid, process.incarnation, activity.name, activity.uid
            )
        )
        if failed:
            self._on_activity_failed(process, activity)
        else:
            self._on_activity_committed(process, activity)
            self._release_held(process.pid)
        self._post_event()

    def _wants_transient_retry(self, flight: InflightActivity) -> bool:
        """Whether a retriable completion turns into another attempt.

        An attached fault injector overrides the manager's own
        ``transient_retry_prob`` sampling (returning ``None`` to fall
        through to it); a configured retry policy bounds the attempt
        budget — once exhausted, the attempt succeeds, preserving
        guaranteed termination.
        """
        verdict = None
        if self.injector is not None:
            verdict = self.injector.wants_retry(
                flight.process, flight.activity, flight.attempts
            )
        if verdict is None:
            verdict = (
                self.config.transient_retry_prob > 0
                and self.rng.random() < self.config.transient_retry_prob
            )
        policy = self.config.retry_policy
        if (
            verdict
            and policy is not None
            and flight.attempts >= policy.max_attempts
        ):
            # The budget forces a failing retriable to count as
            # successful (guaranteed termination); surface the decision
            # instead of swallowing it silently.
            activity = flight.activity
            self.tracer.emit(
                RetryBudgetExhausted(
                    pid=flight.process.pid,
                    activity=activity.name,
                    uid=activity.uid,
                    attempts=flight.attempts,
                    subsystem=activity.activity_type.subsystem,
                )
            )
            counters = getattr(self.injector, "counters", None)
            if counters is not None:
                counters.retry_budget_exhausted += 1
            return False
        return verdict

    def _retry_delay(self, flight: InflightActivity) -> float:
        """Backoff before the next attempt; charges Wcc under a policy."""
        policy = self.config.retry_policy
        if policy is None:
            return self.config.retry_delay
        flight.process.charge_wcc(
            retry_wcc_charge(
                flight.process.registry, flight.activity.name
            )
        )
        return policy.delay_for(flight.attempts - 1)

    def _samples_failure(
        self, process: Process, activity: Activity
    ) -> bool:
        """Whether a completed non-retriable activity fails.

        An attached fault injector may decide deterministically (honoring
        the type's ``p(a)`` via its own seeded streams); otherwise the
        manager samples ``p(a)`` from its run RNG as always.
        """
        if self.injector is not None:
            verdict = self.injector.should_fail(process, activity)
            if verdict is not None:
                return verdict
        return (
            self.rng.random()
            < activity.activity_type.failure_probability
        )

    def _on_activity_committed(
        self, process: Process, activity: Activity
    ) -> None:
        self._run_subsystem_program(process, activity)
        process.on_committed(activity)
        self.trace.record_activity(process, activity)
        self.records[process.pid].activities_committed += 1
        stashed = self._stashed_failures.get(process.pid)
        if stashed is not None and process.outstanding == 1:
            del self._stashed_failures[process.pid]
            self._resolve_failure(process, stashed)
            return
        if stashed is None:
            self._step(process)

    def _on_activity_failed(
        self, process: Process, activity: Activity
    ) -> None:
        stashed = self._stashed_failures.get(process.pid)
        if stashed is not None:
            # A sibling of an already-stashed failure failed as well; the
            # node is doomed either way, so this activity is simply
            # abandoned and the drain condition re-checked.
            process.abandon(activity)
            if process.outstanding == 1:
                del self._stashed_failures[process.pid]
                self._resolve_failure(process, stashed)
            return
        if process.outstanding > 1:
            # Parallel siblings still in flight: drain them first, then
            # resolve the failure.  Parked sibling requests are abandoned
            # right away — the node can never complete.
            self._cancel_parked_of(process, kinds=(RequestKind.REGULAR,))
            if process.outstanding > 1:
                self._stashed_failures[process.pid] = activity
                return
        self._resolve_failure(process, activity)

    def _resolve_failure(
        self, process: Process, activity: Activity
    ) -> None:
        plan = process.on_failed(activity)
        if plan.resolution is Resolution.RETRY:  # pragma: no cover
            raise SchedulerError(
                "retriable failures are handled inline; on_failed must "
                "not return RETRY here"
            )
        # A failed subprocess unwinds to the next branch; anything else
        # aborts the process.
        subprocess = plan.resolution is Resolution.ABORT_SUBPROCESS
        cause = "subprocess" if subprocess else "intrinsic"
        self.tracer.emit(
            AbortBegun(
                pid=process.pid, incarnation=process.incarnation, cause=cause
            )
        )
        self._start_compensation_run(
            process,
            plan,
            label=f"{cause}-abort",
            then="next-branch" if subprocess else "aborted",
        )

    # ------------------------------------------------------------------
    # compensation runs
    # ------------------------------------------------------------------
    def _start_compensation_run(
        self, process: Process, plan: FailurePlan, label: str, then: str
    ) -> None:
        if process.pid in self._comp_runs:
            raise SchedulerError(
                f"P{process.pid}: overlapping compensation runs"
            )
        run = CompensationRun(
            process=process,
            queue=list(plan.compensations),
            then=then,
            label=label,
        )
        self._comp_runs[process.pid] = run
        self._advance_compensation(run)

    def _advance_compensation(self, run: CompensationRun) -> None:
        process = run.process
        if not run.queue:
            del self._comp_runs[process.pid]
            if run.then == "next-branch":
                process.start_next_branch()
                self._step(process)
                self._release_held(process.pid)
            else:
                self._finalize_abort(process, run.then)
            return
        entry = run.queue[0]
        activity = process.make_compensation(entry)
        decision = self.protocol.request_compensation_lock(
            process, activity
        )
        self._apply_decision(
            decision,
            ParkedRequest(
                kind=RequestKind.COMPENSATION,
                process=process,
                activity=activity,
                parked_at=self.engine.now,
            ),
        )

    def _complete_compensation(self, flight: InflightActivity) -> None:
        if flight.cancelled:  # pragma: no cover - compensations never
            return            # belong to abortable processes
        process = flight.process
        activity = flight.activity
        self._inflight.pop(activity.uid, None)
        self._release_dependents(flight)
        run = self._comp_runs.get(process.pid)
        if run is None or not run.queue:
            raise SchedulerError(
                f"P{process.pid}: stray compensation {activity}"
            )
        entry = run.queue.pop(0)
        undone_cost = entry.activity.activity_type.cost
        self.tracer.emit(
            ActivityCommitted(
                pid=process.pid,
                incarnation=process.incarnation,
                activity=activity.name,
                uid=activity.uid,
                compensation=True,
                undone=undone_cost,
                cause=run.label,
            )
        )
        self._run_subsystem_program(process, activity)
        process.on_compensated(entry, activity)
        self.trace.record_activity(process, activity)
        record = self.records[process.pid]
        record.compensations += 1
        record.compensated_cost += undone_cost
        record.compensated_names.append(entry.activity.name)
        record.compensated_causes.append(run.label)
        self._advance_compensation(run)
        self._post_event()

    # ------------------------------------------------------------------
    # aborts (protocol-induced)
    # ------------------------------------------------------------------
    def _begin_protocol_abort(
        self, pid: int, cause: str = "cascade", then: str = "resubmit"
    ) -> bool:
        """Abort a running process on the protocol's (or, with ``then``
        ``"cancelled"``, a client's) behalf; ``False`` when it is not
        running any more and nothing was begun.

        ``cause`` distinguishes the paper's cascading aborts (Comp-,
        Piv-, and C⁻¹-Rule victims), deadlock-cycle resolution (reachable
        under the cost-based extension and the baselines only), and
        baseline self-aborts; compensation records carry it so the
        experiments can attribute undone work to its channel.
        """
        process = self._processes.get(pid)
        if process is None or process.state is not ProcessState.RUNNING:
            return False  # already terminating (or terminated)
        self.tracer.emit(
            AbortBegun(pid=pid, incarnation=process.incarnation, cause=cause)
        )
        self._cancel_all_work(process)
        plan = process.plan_protocol_abort()
        if then == "resubmit":
            self.records[pid].cascade_aborts += 1
        self._start_compensation_run(
            process, plan, label=f"protocol-abort:{cause}", then=then
        )
        return True

    def _cancel_all_work(self, process: Process) -> None:
        """Cancel in-flight activities and parked requests of a victim."""
        self._cancel_parked_of(
            process,
            kinds=(
                RequestKind.REGULAR,
                RequestKind.COMMIT,
            ),
        )
        stashed = self._stashed_failures.pop(process.pid, None)
        if stashed is not None:
            # The stashed activity already completed (failed) and was
            # still counted as outstanding pending sibling drain.
            process.abandon(stashed)
        for flight in self._flights_of(process.pid):
            flight.cancelled = True
            del self._inflight[flight.activity.uid]
            self.tracer.emit(
                ActivityCancelled(
                    pid=process.pid,
                    incarnation=process.incarnation,
                    activity=flight.activity.name,
                    uid=flight.activity.uid,
                )
            )
            self._release_dependents(flight)
            process.abandon(flight.activity)

    def _flights_of(self, pid: int) -> list[InflightActivity]:
        """In-flight activities of one process, in launch order."""
        return [
            flight
            for flight in list(self._inflight.values())
            if flight.process.pid == pid
        ]

    def _cancel_parked_of(
        self, process: Process, kinds: tuple[RequestKind, ...]
    ) -> None:
        doomed = [
            request
            for request in self._parked_of.get(process.pid, {}).values()
            if request.kind in kinds
        ]
        for request in doomed:
            self._unpark(request)
            if request.kind is RequestKind.REGULAR:
                process.abandon(request.activity)

    def _finalize_abort(self, process: Process, then: str) -> None:
        """End an abort: ``then`` is ``"resubmit"`` or the pid's outcome.
        Out of resubmissions it is ``starved`` — reported by :meth:`run`
        after the drain, never raised from inside this callback."""
        pid = process.pid
        count = self.records[pid].resubmissions
        if then == "resubmit" and count >= self.config.max_resubmissions:
            then = "starved"
            self.tracer.emit(ProcessStarved(pid, count))
        process.finish_abort()
        self.trace.record_abort(process)
        self.protocol.detach(process)
        del self._processes[pid]
        self.tracer.emit(
            ProcessAborted(
                pid=pid,
                incarnation=process.incarnation,
                resubmit=then == "resubmit",
            )
        )
        if then == "resubmit":
            self._hold_start(
                pid,
                process.program,
                self.config.resubmit_delay,
                process.resubmit(),
            )
        else:
            self._decide(pid, then)
        self._retry_parked(pid)
        if then != "resubmit":
            self._release_held(pid)

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def _finalize_commit(self, process: Process) -> None:
        process.finish_commit()
        self.trace.record_commit(process)
        self.protocol.detach(process)
        del self._processes[process.pid]
        self.records[process.pid].committed_at = self.engine.now
        self._decide(process.pid, "committed")
        self.tracer.emit(
            ProcessCommitted(pid=process.pid, incarnation=process.incarnation)
        )
        self._retry_parked(process.pid)
        self._release_held(process.pid)

    # ------------------------------------------------------------------
    # parked-request machinery
    # ------------------------------------------------------------------
    def _park(self, request: ParkedRequest) -> None:
        """Store a deferred request and index its wait set.

        Every (re-)park draws a fresh sequence number, so the parked
        store stays ordered by park time exactly like the historical
        append-to-a-list representation.
        """
        seq = request.seq = next(self._park_seq)
        self._parked[seq] = request
        self._parked_of.setdefault(request.process.pid, {})[seq] = request
        for pid in request.wait_for:
            self._wait_index.setdefault(pid, set()).add(seq)
        self.tracer.emit(self._wait_edge_event("insert", request))

    def _unpark(self, request: ParkedRequest) -> None:
        """Remove a parked request and unregister its index entries."""
        seq, waiter = request.seq, request.process.pid
        del self._parked[seq]
        own = self._parked_of[waiter]
        del own[seq]
        if not own:
            del self._parked_of[waiter]
        for pid in request.wait_for:
            bucket = self._wait_index.get(pid)
            if bucket is not None:
                bucket.discard(seq)
                if not bucket:
                    del self._wait_index[pid]
        self.tracer.emit(self._wait_edge_event("delete", request))

    def _retry_parked(self, dead_pid: int) -> None:
        """Wake the requests that waited on a terminated process.

        The wait index maps each pid to the parked requests waiting on
        it, so a termination wakes exactly its dependents instead of
        re-polling the whole parked list to a fixpoint.  Woken requests
        are drained in park order through a shared min-heap; retries can
        terminate further processes, whose reentrant calls push into the
        same heap — the innermost drain therefore always retries the
        oldest eligible request first, which reproduces the historical
        scan-in-park-order fixpoint exactly.

        Each nested drain sits six frames above the one whose retry
        terminated ``dead_pid``, so a long cascade chain would exhaust
        the interpreter's stack.  ``_MAX_NESTED_DRAINS`` deep, a
        termination only queues its waiters: an enclosing drain is on
        the stack by construction and retries them, oldest first, as
        it unwinds.
        """
        bucket = self._wait_index.pop(dead_pid, None)
        if bucket:
            for seq in bucket:
                heapq.heappush(self._wake_pending, seq)
        if self._drain_depth >= _MAX_NESTED_DRAINS:
            return
        self._drain_depth += 1
        try:
            while self._wake_pending:
                seq = heapq.heappop(self._wake_pending)
                request = self._parked.get(seq)
                if request is None:
                    continue  # cancelled or already retried reentrantly
                if all(
                    pid in self._processes for pid in request.wait_for
                ):
                    continue  # re-parked; everything it waits on is live
                self._unpark(request)
                process = request.process
                if process.state.is_terminal:
                    continue
                if request.kind is RequestKind.REGULAR:
                    decision = self.protocol.request_activity_lock(
                        process, request.activity, request.mode
                    )
                elif request.kind is RequestKind.COMPENSATION:
                    decision = self.protocol.request_compensation_lock(
                        process, request.activity
                    )
                else:
                    decision = self.protocol.try_commit(process)
                self._apply_decision(decision, request)
        finally:
            self._drain_depth -= 1

    def _has_parked_commit(self, process: Process) -> bool:
        return any(
            request.kind is RequestKind.COMMIT
            for request in self._parked_of.get(process.pid, {}).values()
        )

    # ------------------------------------------------------------------
    # deadlock resolution (cost-based extension only)
    # ------------------------------------------------------------------
    def _blockers_of(self, request: ParkedRequest) -> frozenset[int]:
        """The pids ``request`` waits on right now."""
        if request.reason != "awaiting-cascade":
            return request.wait_for
        # A victim that is still running has its abort initiation pending
        # in the current callback; only victims whose aborts are genuinely
        # under way (and possibly stuck) are wait-graph edges.  Read live:
        # a victim becomes an edge when its abort begins, between the park
        # and the resolve of one ``_apply_decision``, and stops being one
        # when it terminates.
        return frozenset(
            pid
            for pid in request.wait_for
            if (proc := self._processes.get(pid)) is not None
            and proc.state is ProcessState.ABORTING
        )

    def _wait_edges(self) -> dict[int, set[int]]:
        """The waits-for relation of the currently parked requests."""
        edges: dict[int, set[int]] = {}
        for request in self._parked.values():
            edges.setdefault(request.process.pid, set()).update(
                self._blockers_of(request)
            )
        return edges

    def _waits_on_itself(self, waiter: int) -> bool:
        """Whether ``waiter`` reaches itself over the waits-for relation
        (depth-first over each reached pid's own parked requests)."""
        parked_of = self._parked_of
        seen = {waiter}
        stack = [waiter]
        while stack:
            for request in parked_of.get(stack.pop(), {}).values():
                for pid in self._blockers_of(request):
                    if pid == waiter:
                        return True
                    if pid not in seen:
                        seen.add(pid)
                        stack.append(pid)
        return False

    def _resolve_wait_cycles(self, waiter: int) -> None:
        """Break wait-for cycles among genuinely blocked requests.

        Called after pid ``waiter`` parked a request.  A park only adds
        edges that leave the parking pid, so a cycle it closes runs
        through that pid: the common acyclic case is answered by a walk
        from there.  Only when the walk comes back (or the previous
        search left a cycle standing) is the whole relation rebuilt
        from the parked requests so the original search picks the exact
        same cycle.  Under the basic process-locking protocol no cycle
        can form (timestamp discipline); with pseudo pivots or the
        baseline protocols, the youngest running process on the cycle
        is sacrificed; cycles without a running member are escalated to
        the protocol's forced-progress choice (pure OSL's unresolvable
        violations).
        """
        if self._cycle_standing or self._waits_on_itself(waiter):
            cycle = find_wait_cycle(self._wait_edges())
            self._cycle_standing = cycle is not None
            if cycle is not None:
                self._act_on_wait_cycle(cycle)
        elif (
            # Audited runs cross-check "no cycle" against the whole
            # relation.
            self.config.audit
            and has_cycle(self._wait_edges())
        ):
            raise ProtocolError(
                f"wait cycle missed by the walk from P{waiter}: "
                f"{self._wait_edges()}"
            )

    def _act_on_wait_cycle(self, cycle: list[int]) -> None:
        """Abort the cycle's victim (or force progress when unabortable)."""
        protected = (
            self.protocol.table.p_lock_holders()
            if self.config.prefer_unprotected_victims
            else set()
        )
        try:
            victim = choose_cycle_victim(
                cycle,
                timestamps=self.protocol.timestamps(),
                running=self.protocol.running_pids(),
                protected=protected,
            )
        except ProtocolError:
            # No running member to abort: only the baselines get here,
            # and which parked request to force is their policy.
            force = getattr(self.protocol, "force_progress", None)
            if force is None:
                raise
            request, decision = force(cycle, self._parked.values())
            self._unpark(request)
            self.tracer.emit(
                UnresolvableForced(
                    pid=request.process.pid,
                    request=request.kind.value,
                    cycle=tuple(cycle),
                )
            )
            if decision is None:
                self._finalize_commit(request.process)
            else:
                self._apply_decision(decision, request)
            return
        self.tracer.emit(DeadlockVictim(pid=victim, cycle=tuple(cycle)))
        self._begin_protocol_abort(victim, cause="deadlock")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _wait_edge_event(self, op: str, request: ParkedRequest) -> WaitEdge:
        activity = request.activity
        return WaitEdge(
            op,
            request.process.pid,
            tuple(sorted(request.wait_for)),
            request.seq,
            request.kind._value_,
            activity.name if activity else None,
            request.reason,
            activity.activity_type.subsystem if activity else None,
        )

    def _holder_info(self, pids) -> tuple[Holder, ...]:
        """Blocking-holder snapshots (timestamp + held modes) for pids."""
        table = self.protocol.table
        holders = []
        for pid in sorted(pids):
            process = self._processes.get(pid)
            timestamp = process.timestamp if process is not None else -1
            holders.append(
                Holder(pid=pid, timestamp=timestamp, modes=table.modes_of(pid))
            )
        return tuple(holders)

    def _trace_decision(
        self, decision: Decision, request: ParkedRequest
    ) -> None:
        """Emit the typed event for one protocol decision (here and in
        :meth:`_wait_edge_event` an Enum's spelling is read as its
        ``_value_``: ``.value`` is a property call)."""
        process = request.process
        pid, incarnation = process.pid, process.incarnation
        kind = request.kind
        activity = request.activity
        name = uid = None
        if activity is not None:
            name, uid = activity.name, activity.uid
        if kind is RequestKind.COMPENSATION:
            mode = "C"
        else:
            mode = request.mode._value_ if request.mode else None
        if isinstance(decision, Grant):
            entry = decision.locks[0] if decision.locks else None
            event = LockGranted(
                pid,
                incarnation,
                kind._value_,
                name,
                uid,
                entry.mode._value_ if entry else mode,
                entry.position if entry else None,
            )
        elif isinstance(decision, Defer):
            event = LockDeferred(
                pid=pid,
                incarnation=incarnation,
                timestamp=process.timestamp,
                request=kind._value_,
                activity=name,
                uid=uid,
                mode=mode,
                reason=decision.reason,
                rule=rule_for_reason(decision.reason),
                blockers=self._holder_info(decision.wait_for),
            )
        elif isinstance(decision, AbortVictims):
            event = CascadeRequested(
                pid=pid,
                incarnation=incarnation,
                timestamp=process.timestamp,
                request=kind._value_,
                activity=name,
                uid=uid,
                mode=mode,
                victims=self._holder_info(decision.victims),
            )
        else:
            event = SelfAbortDecision(
                pid=pid,
                incarnation=incarnation,
                timestamp=process.timestamp,
                request=kind._value_,
                activity=name,
                reason=decision.reason,
                rule=rule_for_reason(decision.reason),
            )
        self.tracer.emit(event)

    def _gauge_sample(self) -> dict[str, float]:
        """Current values of the virtual-time gauges."""
        table = self.protocol.table
        sample = {
            "parked": float(len(self._parked)),
            "inflight": float(self.stats.inflight),
            "live": float(len(self._processes)),
            "held": float(len(self._held)),
            "locks": float(table.lock_count),
        }
        for subsystem, count in table.locks_by_subsystem().items():
            sample[f"locks.{subsystem}"] = float(count)
        return sample

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _run_subsystem_program(
        self, process: Process, activity: Activity
    ) -> None:
        if self.subsystems is None:
            return
        subsystem_name = activity.activity_type.subsystem
        if subsystem_name not in self.subsystems:
            return
        subsystem = self.subsystems.get(subsystem_name)
        if activity.name in subsystem.catalog:
            subsystem.execute_activity(
                activity.name, timestamp=process.timestamp
            )

    def _post_event(self) -> None:
        if self.config.audit:
            self.protocol.audit()


def _attach_store(
    config: ManagerConfig, subsystems: SubsystemPool | None
) -> None:
    """Back an unattached pool with the configured durable store.

    ``config.store`` wins; otherwise, when the ``REPRO_STORE`` knob
    names a backend, a store is opened ambiently (fresh temp directory
    unless ``REPRO_STORE_PATH`` is set) — that is how the entire test
    suite runs durably under ``REPRO_STORE=log``.  Pools that are
    already attached, and callers without a pool, are left alone.
    """
    if subsystems is None or getattr(subsystems, "store", None) is not None:
        return
    store = config.store
    if store is None and repro_config.store_kind() is not None:
        from repro.storage.facade import Store

        store = Store.open()
    if store is not None and hasattr(subsystems, "attach_store"):
        subsystems.attach_store(store)


def make_manager(
    protocol,
    subsystems: SubsystemPool | None = None,
    config: ManagerConfig | None = None,
    seed: int = 0,
    tracer=None,
) -> ProcessManager:
    """Build the process manager, its pool backed by the configured store."""
    config = config or ManagerConfig()
    _attach_store(config, subsystems)
    return ProcessManager(
        protocol,
        subsystems=subsystems,
        config=config,
        seed=seed,
        tracer=tracer,
    )
