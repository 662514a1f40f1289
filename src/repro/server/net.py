"""Asyncio TCP front end of the process-locking service.

One asyncio task per connection reads JSON-lines requests and a
companion writer task drains a single per-connection outbound queue —
responses and pushed event frames share that one queue, so a client
always observes its events and responses in a well-defined order (for
a lockstep client in eager mode, a byte-deterministic one: a drain
publishes its events before it resolves its response futures).

The event loop runs on the serving thread, inside the service's
:meth:`~repro.server.service.ProcessLockingService._run_loop`: between
drains the loop reads the wire, and a drain runs on the same thread.
So a response future resolves on the thread that awaits it, and a bus
event is put straight onto the subscriber's queue — nothing here
crosses a thread.  :func:`run_server` and :func:`start_server_thread`
hand :func:`serve` to
:meth:`~repro.server.service.ProcessLockingService.host`, which sets
that up on the calling thread.

``SUBSCRIBE``/``UNSUBSCRIBE`` are connection-local: they wire the
service bus straight into the connection's outbound queue and never
reach the engine.  Every other command funnels through
:meth:`~repro.server.service.ProcessLockingService.execute`, with
``SUBMIT`` shed at the socket (see
:meth:`~repro.server.service.ProcessLockingService.shed_reason`)
before anything is enqueued.

Shutdown: SIGTERM/SIGINT stop the listener, ``DRAIN`` the service (all
in-flight processes run to termination), announce ``service.drained``
to subscribers, then close lingering connections.  The smoke test
asserts no submitted process is lost across this path.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from concurrent.futures import Future

from repro.server.protocol import (
    WireError,
    decode_line,
    encode,
    error_response,
    event_frame,
    ok_response,
)
from repro.server.service import (
    ProcessLockingService,
    ServiceConfig,
    ServiceError,
)

#: Queue sentinel that tells a connection's writer task to finish.
_CLOSE = object()


async def _answer(fut: Future) -> dict:
    """The body ``fut`` resolves to.  A drain on this thread resolves
    it, so its done-callback may complete an asyncio future directly."""
    if not fut.done():
        waiter = asyncio.get_running_loop().create_future()
        fut.add_done_callback(
            lambda _: waiter.done() or waiter.set_result(None)
        )
        await waiter
    return fut.result()


async def handle_connection(
    service: ProcessLockingService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client until EOF, ``bye``, or cancellation."""
    out_q: asyncio.Queue = asyncio.Queue()

    async def pump() -> None:
        while True:
            frame = await out_q.get()
            if frame is _CLOSE:
                break
            writer.write(encode(frame))
            await writer.drain()

    pump_task = asyncio.create_task(pump())
    tokens: list[int] = []

    def push_event(topic: str, record: dict) -> None:
        # The bus publishes from a drain, on this loop's thread.
        out_q.put_nowait(event_frame(topic, record))

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                request = decode_line(line)
            except WireError as exc:
                out_q.put_nowait(
                    error_response(None, exc.code, exc.message)
                )
                continue
            req_id = request.get("id")
            cmd = request["cmd"]
            if cmd == "subscribe":
                out_q.put_nowait(
                    _subscribe(service, request, push_event, tokens)
                )
                continue
            if cmd == "unsubscribe":
                out_q.put_nowait(
                    _unsubscribe(service, request, tokens)
                )
                continue
            try:
                body = await _answer(service.execute(request))
                out_q.put_nowait(ok_response(req_id, **body))
            except ServiceError as exc:
                out_q.put_nowait(
                    error_response(req_id, exc.code, exc.message)
                )
            if cmd == "bye":
                break
    finally:
        for token in tokens:
            service.bus.unsubscribe(token)
        out_q.put_nowait(_CLOSE)
        with contextlib.suppress(Exception):
            await pump_task
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


def _subscribe(service, request, push_event, tokens) -> dict:
    req_id = request.get("id")
    topics = request.get("topics", ["*"])
    if not (
        isinstance(topics, list)
        and topics
        and all(isinstance(t, str) for t in topics)
    ):
        return error_response(
            req_id,
            "bad-request",
            f"'topics' must be a non-empty list of strings, "
            f"got {topics!r}",
        )
    token = service.bus.subscribe(topics, push_event)
    tokens.append(token)
    return ok_response(req_id, token=token, topics=topics)


def _unsubscribe(service, request, tokens) -> dict:
    req_id = request.get("id")
    token = request.get("token")
    if token is None:
        dropped = [t for t in tokens if service.bus.unsubscribe(t)]
        tokens.clear()
        return ok_response(req_id, dropped=len(dropped))
    if token not in tokens:
        return error_response(
            req_id, "bad-request", f"unknown subscription {token!r}"
        )
    tokens.remove(token)
    service.bus.unsubscribe(token)
    return ok_response(req_id, dropped=1)


async def serve(
    service: ProcessLockingService,
    host: str = "127.0.0.1",
    port: int = 7453,
    *,
    metrics_port: int | None = None,
    on_ready=None,
    shutdown: asyncio.Event | None = None,
) -> None:
    """Listen, serve, and drain gracefully on shutdown.

    Runs as a task on the service's own loop, under its ``_run_loop``
    (:meth:`~repro.server.service.ProcessLockingService.host` arranges
    both).

    ``on_ready(host, port)`` fires once the socket is bound (the CLI
    prints the address; tests and the in-thread helper capture the
    ephemeral port).  ``shutdown`` is set by SIGTERM/SIGINT (installed
    when the loop runs on the main thread) or by the embedding test.

    With a ``metrics_port`` an HTTP ``/metrics`` sidecar runs for the
    server's lifetime; it is exposed as ``service.sidecar`` before
    ``on_ready`` fires.
    """
    if metrics_port is not None:
        from repro.server.sidecar import MetricsSidecar

        service.sidecar = MetricsSidecar(
            service, host, metrics_port
        ).start()
    shutdown = shutdown or asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(sig, shutdown.set)
    connections: set[asyncio.Task] = set()

    async def entry(reader, writer):
        task = asyncio.current_task()
        connections.add(task)
        try:
            await handle_connection(service, reader, writer)
        finally:
            connections.discard(task)

    server = await asyncio.start_server(entry, host, port, backlog=128)
    bound = server.sockets[0].getsockname()
    if on_ready is not None:
        on_ready(bound[0], bound[1])
    async with server:
        await shutdown.wait()
        # Graceful drain: stop accepting, run every in-flight process
        # to termination, then let clients read the final frames.
        server.close()
        await server.wait_closed()
        if not service._drained.is_set():
            with contextlib.suppress(Exception):
                await _answer(service.execute({"cmd": "drain"}))
        if connections:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(
                        *connections, return_exceptions=True
                    ),
                    timeout=5.0,
                )
        for task in list(connections):
            task.cancel()
    if service.sidecar is not None:
        service.sidecar.stop()
        service.sidecar = None


def run_server(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 7453,
    metrics_port: int | None = None,
) -> None:
    """Blocking entry point behind ``repro serve``."""
    service = ProcessLockingService(config)

    def announce(bound_host: str, bound_port: int) -> None:
        print(
            f"repro-serve listening on {bound_host}:{bound_port} "
            f"(protocol={service.config.protocol}, "
            f"catalog={len(service.workload.programs)})",
            flush=True,
        )
        sidecar = service.sidecar
        if sidecar is not None:
            print(
                f"repro-serve metrics on "
                f"http://{sidecar.host}:{sidecar.port}/metrics",
                flush=True,
            )
        if service.store is not None:
            stats = service.store.stats()
            line = (
                f"repro-serve store {stats['kind']} at "
                f"{stats['path']} (fsync={stats['fsync']})"
            )
            recovery = service.recovery
            if recovery is not None and recovery.recovered_anything:
                line += (
                    f"; recovered adopted={recovery.adopted} "
                    f"resubmitted={recovery.resubmitted} "
                    f"restored={recovery.restored}"
                )
            print(line, flush=True)

    service.host(
        serve(
            service,
            host,
            port,
            metrics_port=metrics_port,
            on_ready=announce,
        )
    )
    print("repro-serve drained cleanly", flush=True)


class ServerHandle:
    """A server running on a background thread (tests, benchmarks)."""

    def __init__(
        self, service: ProcessLockingService, host: str, port: int
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Bound sidecar port, or ``None`` when no sidecar runs.
        self.metrics_port: int | None = None
        self._shutdown = asyncio.Event()
        self._thread: threading.Thread | None = None

    def stop(self) -> None:
        """Trigger the graceful-drain path and join the thread."""
        self.service.wake(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=30)


def start_server_thread(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: int | None = None,
) -> ServerHandle:
    """Run a full server on a daemon thread; returns once bound."""
    service = ProcessLockingService(config)
    handle = ServerHandle(service, host, port)
    ready = threading.Event()
    failure: list[BaseException] = []

    def on_ready(bound_host: str, bound_port: int) -> None:
        handle.host = bound_host
        handle.port = bound_port
        sidecar = service.sidecar
        handle.metrics_port = (
            sidecar.port if sidecar is not None else None
        )
        ready.set()

    def main() -> None:
        try:
            service.host(
                serve(
                    service,
                    host,
                    port,
                    metrics_port=metrics_port,
                    on_ready=on_ready,
                    shutdown=handle._shutdown,
                )
            )
        except BaseException as exc:  # surfaced via ready-wait below
            failure.append(exc)
            ready.set()

    handle._thread = threading.Thread(
        target=main, name="repro-serve", daemon=True
    )
    handle._thread.start()
    ready.wait(timeout=30)
    if failure:
        raise failure[0]
    return handle
