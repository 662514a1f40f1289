"""The core of the process-locking service.

:class:`ProcessLockingService` owns one
:class:`~repro.scheduler.manager.ProcessManager` (built by
:func:`~repro.scheduler.manager.make_manager`) and drives it from
:meth:`~ProcessLockingService._run_loop`, on the one thread that also
runs the :class:`~repro.server.loop.Loop` the wire is read on (the
*serving thread*).  Between drains ``_run_loop`` runs that loop; a
request read there is queued by
:meth:`~ProcessLockingService.execute`, which ends the loop's run after
its turn, so every command read in one turn shares one drain, one fsync
and one round of answers, and the answers resolve on the thread that
waits for them.  The manager is therefore never touched concurrently
and nothing crosses a thread on the served path.

Hosts
-----
:meth:`~ProcessLockingService.host` runs the loop and ``_run_loop`` on
the calling thread; the network layer hands it
:func:`~repro.server.net.serve`.  In-process callers use
:meth:`~ProcessLockingService.start`, a thread whose loop watches only
its wake socket, and call ``execute(...).result()`` from theirs; such
a call wakes the loop with :meth:`~ProcessLockingService.wake`, the
one cross-thread hop left.

Pacing
------
With ``time_scale == 0`` (**eager**, the default) every command batch
is followed by a drain to quiescence: virtual time jumps, responses
describe a settled world, and a single-client scripted session is
byte-deterministic at a fixed seed.  With ``time_scale > 0`` (**paced**)
each wall-clock tick advances virtual time by
``elapsed_wall * time_scale`` via
:meth:`~repro.scheduler.engine.SimulationEngine.run_due`, so processes
stay genuinely in flight between ticks and ``CANCEL`` can catch a
running process.

Overload protection
-------------------
:meth:`ProcessLockingService.shed_reason` is checked by the network
layer *before* a ``SUBMIT`` is enqueued — i.e. before the process
draws a timestamp or touches a lock: submissions are shed when the
service is draining or when the not-yet-initiated backlog reaches
``max_backlog``.

Drain
-----
``DRAIN`` (and the network layer's SIGTERM path) stops admissions,
runs the engine to quiescence so every in-flight process terminates,
closes the manager, and answers with a final summary — no submitted
process is ever dropped mid-flight.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from queue import SimpleQueue

from repro import config as repro_config
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MANAGER_COUNTS, MetricsTracer
from repro.scheduler.events import conserved
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.server.bridge import BusTracer
from repro.server.bus import EventBus
from repro.server.loop import Loop
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload


@dataclass
class ServiceConfig:
    """Everything needed to stand up one service instance."""

    #: Protocol name from :data:`repro.sim.runner.PROTOCOL_FACTORIES`.
    protocol: str = "process-locking"
    #: Template workload: its programs become the submission catalog
    #: (``SUBMIT {"program": i}`` runs catalog entry ``i mod size``)
    #: and its registry/conflict matrix/subsystems define the world.
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    seed: int = 0
    #: Residue of the removed thread-per-shard manager, pinned by
    #: bench/ (``bench/server_main.py`` passes ``workers=0``); goes with
    #: ROADMAP 2(a).  ``None`` / ``0`` only.
    workers: int | None = None
    #: Not-yet-initiated submissions accepted before ``SUBMIT``s are
    #: shed at the socket (overload protection).
    max_backlog: int = 256
    #: Virtual-time units per wall second; 0 = eager (see module doc).
    time_scale: float = 0.0
    #: Paced-mode wall poll interval, seconds.
    tick: float = 0.02
    #: Full manager-config override for advanced callers (retry
    #: policy, resubmission budget).
    manager_config: ManagerConfig | None = None
    #: Flight-recorder ring capacity; ``None`` defers to the
    #: ``REPRO_FLIGHT_EVENTS`` knob.
    flight_capacity: int | None = None
    #: JSONL path for automatic flight dumps (SIGTERM drain, unhandled
    #: errors); ``None`` defers to the ``REPRO_FLIGHT_PATH`` knob,
    #: which is itself unset by default — the ``dump`` wire verb works
    #: regardless.
    flight_path: str | None = None
    #: Durable persistence: a :class:`repro.storage.Store` instance, the
    #: backend kind ``"log"``, or
    #: ``None`` to defer to the ``REPRO_STORE`` knob (unset = run
    #: in-memory, the seed behaviour).  When set, every acknowledged
    #: submission and terminal outcome is journaled, snapshots are cut
    #: on the ``snapshot_every`` cadence, and a restart on the same
    #: store replays and resumes — see ``docs/persistence.md``.
    store: object | None = None
    #: Store directory; ``None`` defers to ``REPRO_STORE_PATH``, then
    #: to a fresh temporary directory.
    store_path: str | None = None
    #: fsync policy ``always`` / ``batch`` / ``never``; ``None`` defers
    #: to the ``REPRO_STORE_FSYNC`` knob.
    store_fsync: str | None = None
    #: Appends between fsyncs under the ``batch`` policy (a crash can
    #: lose at most this many unsynced records).
    store_sync_every: int = 64
    #: Submissions, cancels and outcomes accepted or decided since the
    #: last snapshot before the next quiescent point takes a new one,
    #: whether or not the journal got a record of each (a process
    #: decided in the drain that admitted it gets one, its
    #: ``terminal``): two per process, so about 24 processes.
    snapshot_every: int = 48

    def __post_init__(self) -> None:
        if self.workers not in (None, 0):
            raise ValueError(
                f"workers={self.workers!r}: the thread-per-shard manager "
                "was removed (DESIGN.md §7); only None or 0 is accepted"
            )
        if not 0.0 <= self.time_scale < math.inf:
            raise ValueError(
                f"time_scale={self.time_scale!r}: expected a finite "
                "number >= 0 (0 drains eagerly)"
            )


class ProcessLockingService:
    """Command-queue front end over one process manager."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.bus = EventBus()
        self.bus_tracer = BusTracer(self.bus)
        self.flight = FlightRecorder(
            repro_config.flight_events(self.config.flight_capacity)
        )
        self.flight_path = repro_config.flight_path(
            self.config.flight_path
        )
        self.store = self._open_store()
        # The tee stamps each event once, feeds the metrics registry,
        # and hands the stamp to the flight ring and the bus bridge, so
        # a wire frame and its flight-ring line carry the same seq / t.
        self.tracer = MetricsTracer(
            sinks=(self.bus_tracer,), recorder=self.flight
        )
        self.metrics = self.tracer.metrics
        registry = self.metrics.registry
        self._g_backlog = registry.gauge(
            "repro_service_backlog",
            "Submitted-but-not-initiated processes queued for admission.",
        )
        self._g_waiters = registry.gauge(
            "repro_service_waiters",
            "SUBMIT wait=true calls still awaiting their outcomes.",
        )
        self._g_draining = registry.gauge(
            "repro_service_draining",
            "1 while the service is draining (no new work accepted).",
        )
        self._g_bus = registry.gauge(
            "repro_bus_frames",
            "Event-bus frame counts by disposition.",
            ("disposition",),
        )
        self._g_subscribers = registry.gauge(
            "repro_bus_subscribers", "Live event-bus subscriptions."
        )
        self._c_shed = registry.counter(
            "repro_service_shed_total",
            "Requests rejected before reaching the engine, by reason.",
            ("reason",),
        )
        self._c_flight_dumps = registry.counter(
            "repro_flight_dumps_total",
            "Flight-recorder dump triggers (a file is written only "
            "when a dump path is configured).",
            ("trigger",),
        )
        # Store gauges are registered only when a store is configured,
        # so the non-durable metrics exposition stays byte-identical.
        self._g_store = None
        self._g_store_journal = None
        self._g_store_snapshot_lsn = None
        if self.store is not None:
            self._g_store = registry.gauge(
                "repro_store_io",
                "Durable-store backend I/O totals by operation.",
                ("op",),
            )
            self._g_store_journal = registry.gauge(
                "repro_store_journal_records",
                "Redo-journal records on disk (replayed on restart).",
            )
            self._g_store_snapshot_lsn = registry.gauge(
                "repro_store_snapshot_lsn",
                "Journal watermark covered by the latest snapshot.",
            )
        self.workload = build_workload(self.config.spec)
        #: Recovery outcome of this incarnation (``None`` = cold start).
        self.recovery = None
        self.plane = None
        try:
            self.manager = self._make_manager()
        except BaseException:
            # A store opened here from a backend name is ours to close
            # (a corrupt slot raises out of the plane or recovery).
            if self.store not in (None, self.config.store):
                self.store.close()
            raise
        self._commands: SimpleQueue = SimpleQueue()
        #: (response builder, future) pairs resolved after each drain.
        self._deferred: list[tuple[object, Future]] = []
        #: (pid set, future) pairs for ``wait`` submits.
        self._waiters: list[tuple[set[int], Future]] = []
        #: pid -> wall submit time, popped into the submit-to-commit
        #: histogram when the pid turns terminal.
        self._wall_submitted: dict[int, float] = {}
        #: The HTTP metrics sidecar, installed by the network layer
        #: when a metrics port is configured.
        self.sidecar = None
        #: The loop ``_run_loop`` runs between drains, and the ident of
        #: the serving thread that runs both (set by ``host``).
        self.loop: Loop | None = None
        self._owner: int | None = None
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._stop = threading.Event()
        self._started = threading.Event()
        #: The in-process host thread (``start``); ``None`` when the
        #: network layer hosts the loop.
        self._thread: threading.Thread | None = None
        #: Set when an exception ended the engine loop: the answer to
        #: every request from then on.  ``_intake`` orders an enqueue
        #: from a foreign thread against ``_fail``'s last sweep.
        self.failed: ServiceError | None = None
        self._intake = threading.Lock()
        # Shed mirror, written after each drain; the sidecar's thread
        # reads it too (an atomic swap).
        self._pending_submissions = 0

    def _make_manager(self):
        """The manager, recovered from the store when it holds state."""
        manager_config = self.config.manager_config or ManagerConfig()
        if self.store is not None:
            from repro.storage import PersistencePlane

            manager_config = replace(manager_config, store=self.store)
            self.plane = PersistencePlane(
                self.store,
                self.workload.programs,
                snapshot_every=self.config.snapshot_every,
                identity={
                    "protocol": self.config.protocol,
                    "seed": self.config.seed,
                    "spec": _spec_fingerprint(self.config.spec),
                },
            )
        protocol = make_protocol(self.config.protocol, self.workload)
        pool = self.workload.make_subsystems()
        if self.plane is not None and self.plane.has_state():
            manager, self.recovery = self.plane.recover(
                protocol,
                config=manager_config,
                subsystems=pool,
                seed=self.config.seed,
                tracer=self.tracer,
            )
            return manager
        return make_manager(
            protocol,
            subsystems=pool,
            config=manager_config,
            seed=self.config.seed,
            tracer=self.tracer,
        )

    def _open_store(self):
        """Resolve the configured durability backend (or ``None``).

        ``ServiceConfig.store`` may already be a
        :class:`repro.storage.Store` (a restart test reopening the same
        directory builds one itself) or a backend-kind string; with
        neither, the ``REPRO_STORE`` knob decides.
        """
        configured = self.config.store
        if configured is None:
            configured = repro_config.store_kind()
        if configured is None:
            return None
        if isinstance(configured, str):
            from repro.storage import Store

            return Store.open(
                configured,
                self.config.store_path,
                fsync=self.config.store_fsync,
                sync_every=self.config.store_sync_every,
            )
        return configured

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def host(self, main=None) -> None:
        """Serve on the calling thread until :meth:`stop`: a new
        :class:`Loop`, ``main()`` to register sockets on it (the network
        layer's ``serve``, whose shutdown ends in :meth:`stop`), then
        ``_run_loop``.  If the engine dies first, the loop goes on
        answering ``internal`` until ``main`` stops it.  An exception
        out of ``main`` (a port already taken) propagates."""
        self.loop = loop = Loop()
        self._owner = threading.get_ident()
        try:
            if main is not None:
                main()
            self._run_loop()
            while main is not None and not self._stop.is_set():
                loop.run()
        finally:
            loop.close()
            if self.store is not None:
                self.store.close()

    def start(self) -> "ProcessLockingService":
        """Serve in-process callers from a thread that runs :meth:`host`
        with no sockets (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.host,
                name="repro-service-engine",
                daemon=True,
            )
            self._thread.start()
            self._started.wait()
        return self

    def stop(self) -> None:
        """Drain (if not already) and end ``_run_loop``.

        From another thread this waits for the drain and joins the
        ``start`` thread.  On the serving thread it only queues the
        drain: ``_run_loop`` applies it, answers it, then returns.
        """
        if self.loop is None:
            return
        here = threading.get_ident() == self._owner
        if not self._drained.is_set():
            drain = self.execute({"cmd": "drain"})
            if not here:
                with contextlib.suppress(Exception):
                    drain.result(timeout=60)
        self._stop.set()
        if here:
            self.loop.stop()
            return
        self.wake()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def wake(self, callback=None) -> None:
        """From another thread or a signal handler: run ``callback`` on
        the serving thread, or (by default) end the loop's run so
        ``_run_loop`` takes the queued commands.  The one cross-thread
        hop in; once the loop is closed, a no-op."""
        loop = self.loop
        if loop is not None:  # not hosted yet: the first turn reads it
            loop.call_soon_threadsafe(callback or loop.stop)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # ------------------------------------------------------------------
    # entry points (the serving thread, or any thread in-process)
    # ------------------------------------------------------------------
    def shed_reason(self, cmd: str) -> tuple[str, str] | None:
        """``(code, message)`` when ``cmd`` must be rejected up front."""
        if self._draining.is_set() and cmd in ("submit", "cancel"):
            return ("draining", "server is draining; no new work")
        if cmd != "submit":
            return None
        backlog = self._pending_submissions + self._commands.qsize()
        if backlog >= self.config.max_backlog:
            return (
                "overloaded",
                f"submission backlog {backlog} at cap "
                f"{self.config.max_backlog}; retry later",
            )
        return None

    def execute(self, request: dict) -> Future:
        """Queue one request for the next drain; returns a future.

        The future resolves to a response *body* dict (the network
        layer wraps it into a wire frame) or raises
        :class:`ServiceError` for request-level failures.  On the
        serving thread the call ends the loop's run after its turn, so
        the drain takes every command read in that turn; from any other
        thread it wakes the loop (:meth:`wake`).
        """
        fut: Future = Future()
        if self.failed is not None:
            fut.set_exception(self.failed)
            return fut
        shed = self.shed_reason(request.get("cmd", ""))
        if shed is not None:
            self._c_shed.inc((shed[0],))
            fut.set_exception(ServiceError(*shed))
            return fut
        if self._drained.is_set() and request.get("cmd") not in (
            "ping",
            "stats",
            "status",
            "check",
            "metrics",
            "dump",
            "drain",
        ):
            fut.set_exception(
                ServiceError("draining", "server has drained")
            )
            return fut
        if threading.get_ident() == self._owner:
            self._commands.put((request, fut))
            self.loop.stop()
            return fut
        with self._intake:
            if self.failed is None:
                self._commands.put((request, fut))
                self.wake()
                return fut
        fut.set_exception(self.failed)
        return fut

    # ------------------------------------------------------------------
    # the serving thread
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        """Serve until :meth:`stop`: run the loop until commands
        arrive (``_next_batch``), apply them, drain the engine, answer
        (``_post_drain``).  Returns early, after ``_fail``, if the
        engine raised; the host's loop may go on answering
        ``internal``."""
        eager = self.config.time_scale <= 0
        start_wall = time.monotonic()
        self._started.set()
        try:
            while not self._stop.is_set():
                batch = self._next_batch()
                for request, fut in batch:
                    self._apply(request, fut)
                if eager:
                    self.manager.engine.run(
                        max_events=self.manager.config.max_events
                    )
                else:
                    deadline = (
                        time.monotonic() - start_wall
                    ) * self.config.time_scale
                    self.manager.engine.run_due(deadline)
                self._post_drain()
        except Exception as exc:  # the manager's state is unknown now
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        """The engine loop died (callbacks and ``_post_drain`` run
        outside any request handler): fail every future it strands."""
        with self._intake:
            self.failed = ServiceError(
                "internal",
                f"engine loop died: {type(exc).__name__}: {exc}",
            )
        self._flight_dump("internal-error")
        stranded = [fut for _, fut in self._deferred + self._waiters]
        self._deferred, self._waiters = [], []
        while not self._commands.empty():
            stranded.append(self._commands.get_nowait()[1])
        for fut in stranded:
            if not fut.done():
                fut.set_exception(self.failed)

    def _next_batch(self) -> list:
        """Every queued command, after running the loop until one is
        queued or ``tick`` has passed; the wire is served in here."""
        commands = self._commands
        if commands.empty() and not self._stop.is_set():
            self.loop.run(self.config.tick)
        batch = []
        while not commands.empty():
            batch.append(commands.get_nowait())
        return batch

    def _apply(self, request: dict, fut: Future) -> None:
        cmd = request.get("cmd")
        try:
            handler = getattr(self, f"_cmd_{cmd}", None)
            if handler is None:
                raise ServiceError(
                    "unknown-command", f"unknown command {cmd!r}"
                )
            handler(request, fut)
        except ServiceError as exc:
            fut.set_exception(exc)
        except Exception as exc:  # defensive: engine must not die
            self._flight_dump("internal-error")
            fut.set_exception(
                ServiceError("internal", f"{type(exc).__name__}: {exc}")
            )

    def _flight_dump(self, trigger: str) -> str | None:
        """Write the flight ring to ``flight_path`` (when configured).

        Never raises — a dump failure must not mask the error that
        triggered it.  Returns the path written, or ``None``.
        """
        self._c_flight_dumps.inc((trigger,))
        if self.flight_path is None:
            return None
        try:
            written = self.flight.dump_jsonl(self.flight_path)
        except OSError:
            return None
        self.bus.publish(
            "service.flight",
            {
                "kind": "service.flight",
                "trigger": trigger,
                "path": str(self.flight_path),
                "events": written,
            },
        )
        return str(self.flight_path)

    # -- command handlers (serving thread) -----------------------------
    def _cmd_ping(self, request: dict, fut: Future) -> None:
        self._deferred.append(
            (lambda: {"pong": True, "now": self.manager.engine.now}, fut)
        )

    def _cmd_submit(self, request: dict, fut: Future) -> None:
        program = _int_arg(request, "program", 0, minimum=0)
        count = _int_arg(request, "count", 1, minimum=1)
        at = request.get("at", 0.0)
        if not isinstance(at, (int, float)) or at < 0:
            raise ServiceError(
                "bad-request", f"'at' must be a delay >= 0, got {at!r}"
            )
        catalog = self.workload.programs
        pids = []
        for k in range(count):
            index = (program + k) % len(catalog)
            pid = self.manager.submit(catalog[index], at=float(at))
            if self.plane is not None:
                # Journaled before the ack future resolves (the flush
                # in after_drain precedes deferred resolution), so an
                # acknowledged pid survives a kill -9.
                self.plane.note_submit(pid, index, float(at))
            pids.append(pid)
        submitted_wall = time.monotonic()
        for pid in pids:
            self._wall_submitted[pid] = submitted_wall
        if request.get("wait"):
            self._waiters.append((set(pids), fut))
        else:
            self._deferred.append((lambda: {"pids": pids}, fut))

    def _cmd_status(self, request: dict, fut: Future) -> None:
        pid = _int_arg(request, "pid", None, minimum=1)
        self._deferred.append((lambda: self._status_body(pid), fut))

    def _cmd_cancel(self, request: dict, fut: Future) -> None:
        pid = _int_arg(request, "pid", None, minimum=1)
        if pid not in self.manager.records:
            raise ServiceError("unknown-pid", f"no process {pid}")
        cancelled = self.manager.cancel(pid)
        if cancelled and self.plane is not None:
            self.plane.note_cancel(pid)
        self._deferred.append(
            (lambda: {"pid": pid, "cancelled": cancelled}, fut)
        )

    def _cmd_stats(self, request: dict, fut: Future) -> None:
        self._deferred.append((self._stats_body, fut))

    def _cmd_metrics(self, request: dict, fut: Future) -> None:
        self._deferred.append((self.metrics_snapshot, fut))

    def _cmd_dump(self, request: dict, fut: Future) -> None:
        self._deferred.append((self._dump_body, fut))

    def _cmd_check(self, request: dict, fut: Future) -> None:
        self._deferred.append((self._check_body, fut))

    def _cmd_drain(self, request: dict, fut: Future) -> None:
        self._draining.set()
        self.manager.engine.run(
            max_events=self.manager.config.max_events
        )
        if self.plane is not None:
            self.plane.after_drain(self.manager)
            self.plane.final(self.manager)
        self._drained.set()
        self._settle_latencies()
        self._flight_dump("drain")
        body = self._stats_body()
        body["drained"] = True
        body["quiesced"] = not self.manager.undecided()
        self.bus.publish(
            "service.drained",
            {"kind": "service.drained", "quiesced": body["quiesced"]},
        )
        self._deferred.append((lambda: body, fut))

    def _cmd_subscribe(self, request: dict, fut: Future) -> None:
        # Subscription wiring is connection-local; the network layer
        # intercepts it.  Reaching here means a caller without one.
        raise ServiceError(
            "bad-request", "subscribe is handled per connection"
        )

    _cmd_unsubscribe = _cmd_subscribe

    def _cmd_bye(self, request: dict, fut: Future) -> None:
        self._deferred.append((lambda: {"bye": True}, fut))

    # -- post-drain bookkeeping (serving thread) -----------------------
    def _settle_latencies(self) -> None:
        """Move terminal pids into the submit-to-commit histogram."""
        if not self._wall_submitted:
            return
        now_wall = time.monotonic()
        outcome = self.manager.outcome
        done = [pid for pid in self._wall_submitted if outcome(pid)]
        for pid in done:
            started = self._wall_submitted.pop(pid)
            self.metrics.observe_latency(now_wall - started, outcome(pid))

    def _post_drain(self) -> None:
        if self.plane is not None:
            # Durability point: terminals journaled, snapshot cadence
            # honoured, everything flushed — before any future below
            # acknowledges a client.
            self.plane.after_drain(self.manager)
        # The registry's gauges, once per drain and on this thread (the
        # sampler reads manager tables): a scrape or a ``metrics``
        # builder below reads what the drain left.
        self.tracer.refresh_gauges()
        self._settle_latencies()
        for builder, fut in self._deferred:
            if not fut.set_running_or_notify_cancel():
                continue
            try:
                fut.set_result(builder())
            except ServiceError as exc:
                fut.set_exception(exc)
            except Exception as exc:
                fut.set_exception(
                    ServiceError(
                        "internal", f"{type(exc).__name__}: {exc}"
                    )
                )
        self._deferred.clear()
        if self._waiters:
            unresolved = []
            for pids, fut in self._waiters:
                if all(map(self.manager.outcome, pids)):
                    if fut.set_running_or_notify_cancel():
                        fut.set_result(self._outcomes_body(pids))
                else:
                    unresolved.append((pids, fut))
            self._waiters = unresolved
        self._pending_submissions = sum(
            phase in ("pending", "awaiting-resubmit")
            for phase in self.manager.undecided().values()
        )

    # -- response bodies -----------------------------------------------
    def _outcomes_body(self, pids: set[int]) -> dict:
        records = self.manager.records
        rows = [
            {
                "pid": pid,
                "outcome": records[pid].outcome,
                "latency": records[pid].latency,
            }
            for pid in sorted(pids)
        ]
        return {"pids": sorted(pids), "outcomes": rows}

    def _status_body(self, pid: int) -> dict:
        manager = self.manager
        phase = manager.phase(pid)
        if phase == "pending":
            return {"pid": pid, "state": "pending"}
        if phase is not None:
            body = {
                "pid": pid,
                "state": phase,
                "incarnation": manager.process(pid).incarnation,
            }
            behind = manager.held_behind(pid)
            if behind:  # held at the restart gate: why it waits
                body["behind"] = behind
            return body
        record = manager.records.get(pid)
        if record is None:
            raise ServiceError("unknown-pid", f"no process {pid}")
        return {
            "pid": pid,
            "state": "done",
            "outcome": record.outcome,
            "committed_at": record.committed_at,
            "latency": record.latency,
            "resubmissions": record.resubmissions,
        }

    def _stats_body(self) -> dict:
        manager = self.manager
        counts = manager.stats
        stats = {name: getattr(counts, name) for name in MANAGER_COUNTS}
        counters = self.bus.counters
        return {
            "manager": stats,
            "engine": {
                "now": manager.engine.now,
                "events_processed": manager.engine.events_processed,
                "pending": manager.engine.pending,
            },
            "service": {
                "backlog": self._pending_submissions,
                "draining": self._draining.is_set(),
                "waiters": len(self._waiters),
                "catalog_size": len(self.workload.programs),
            },
            "bus": {
                "published": counters.published,
                "delivered": counters.delivered,
                "dropped": counters.dropped,
                "subscribers": self.bus.subscriber_count,
            },
            **(
                {"store": self._store_body()}
                if self.store is not None
                else {}
            ),
        }

    def _store_body(self) -> dict:
        body = self.store.stats()
        # The path is host-local noise on the wire (and randomized for
        # ambient temp stores, which would break the byte-deterministic
        # scripted-session guarantee); the serve banner and
        # `repro store inspect` carry it for operators.
        body.pop("path", None)
        body["journal_records"] = self.plane.journal_len
        body["snapshot_lsn"] = self.plane._snapshot_lsn
        if self.recovery is not None:
            body["recovered"] = {
                "adopted": self.recovery.adopted,
                "resubmitted": self.recovery.resubmitted,
                "restored": self.recovery.restored,
                "healed": self.recovery.healed,
                "seconds": round(self.recovery.seconds, 6),
            }
        return body

    def _refresh_service_gauges(self) -> None:
        """Fold server-side state into the registry before a snapshot.

        Called on the serving thread for the wire verb and on the
        sidecar's HTTP thread for scrapes — every read here is either a
        lock-free mirror or an atomic attribute read.
        """
        self._g_backlog.set(float(self._pending_submissions))
        self._g_waiters.set(float(len(self._waiters)))
        self._g_draining.set(
            1.0 if self._draining.is_set() else 0.0
        )
        counters = self.bus.counters
        self._g_bus.set(float(counters.published), ("published",))
        self._g_bus.set(float(counters.delivered), ("delivered",))
        self._g_bus.set(float(counters.dropped), ("dropped",))
        self._g_subscribers.set(float(self.bus.subscriber_count))
        if self._g_store is not None:
            stats = self.store.stats()
            self._g_store.set(float(stats["appends"]), ("appends",))
            self._g_store.set(float(stats["fsyncs"]), ("fsyncs",))
            self._g_store.set(
                float(stats["bytes_written"]), ("bytes",)
            )
            self._g_store_journal.set(float(self.plane.journal_len))
            self._g_store_snapshot_lsn.set(
                float(self.plane._snapshot_lsn)
            )

    def metrics_snapshot(self) -> dict:
        """The registry as JSON (the ``metrics`` wire verb's body)."""
        self._refresh_service_gauges()
        return {
            "now": self.manager.engine.now,
            "metrics": self.metrics.registry.snapshot(),
        }

    def render_metrics(self) -> str:
        """Prometheus text exposition (served by the HTTP sidecar)."""
        self._refresh_service_gauges()
        return self.metrics.registry.render_prometheus()

    def _dump_body(self) -> dict:
        records = self.flight.snapshot()
        return {
            "events": records,
            "retained": len(records),
            "appended": self.flight.appended,
            "capacity": self.flight.capacity,
        }

    def _check_body(self) -> dict:
        """The verdict the recorder carries (docs/service.md)."""
        manager = self.manager
        verdict = manager.trace.verdict
        prefix_reducible = verdict.first_bad is None
        return {
            "events": len(manager.trace),
            "complete": verdict.complete,
            # CT (Definition 6) is P-RED over a *complete* schedule.
            "correct_termination": (
                prefix_reducible if verdict.complete else None
            ),
            "prefix_reducible": prefix_reducible,
            "process_recoverable": verdict.process_recoverable,
            "violations": len(verdict.found),
            "conserved": conserved(  # docs/faults.md
                manager.records, manager.stats, manager.undecided()
            ),
        }


class ServiceError(Exception):
    """A request-level failure with a wire error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _spec_fingerprint(spec: WorkloadSpec) -> str:
    """Canonical JSON identity of a workload spec.

    Stored in the meta document so a restart against a store written
    for a *different* world (other catalog, other conflict matrix)
    fails loudly instead of replaying nonsense.
    """
    import json
    from dataclasses import asdict

    return json.dumps(
        asdict(spec), sort_keys=True, separators=(",", ":"), default=str
    )


def _int_arg(request: dict, name: str, default, minimum: int):
    value = request.get(name, default)
    if value is None:
        raise ServiceError(
            "bad-request", f"missing integer field {name!r}"
        )
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            "bad-request", f"{name!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ServiceError(
            "bad-request", f"{name!r} must be >= {minimum}, got {value}"
        )
    return value
