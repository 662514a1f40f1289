"""TCP front end of the process-locking service.

:func:`serve` registers a non-blocking listener on the serving thread's
:class:`~repro.server.loop.Loop`, and each accepted socket as a
:class:`Connection`: an input buffer split at ``\\n`` (a line over
:data:`MAX_LINE` bytes is answered ``bad-request`` and closes the
connection), one request in flight while later lines wait, and an
output buffer sent when the socket is writable.  Responses and event
frames share that buffer and a drain publishes before it answers, so a
client sees a drain's events before its responses.  An unexpected error
in a connection's handler closes that connection, not the loop.

``SUBSCRIBE``/``UNSUBSCRIBE`` are connection-local; every other command
goes through :meth:`~repro.server.service.ProcessLockingService.execute`.
Shutdown (SIGTERM, SIGINT) stops the listener, drains the service, then
closes lingering connections; no submitted process is lost on the way.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import threading
import traceback
from concurrent.futures import Future
from functools import partial
from selectors import EVENT_READ, EVENT_WRITE

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

#: The longest request line read, in bytes, its ``\n`` not counted.
MAX_LINE = 64 * 1024
TOO_LONG = f"request line over the {MAX_LINE}-byte limit"


def contained(handler):
    """A :class:`Connection` loop handler whose error closes that
    connection alone: quietly if the client is gone, else on stderr."""

    def run(conn: Connection, *args) -> None:
        try:
            handler(conn, *args)
        except OSError:  # reset by the client
            conn.close()
        except Exception:
            traceback.print_exc()
            conn.close()

    return run


class Connection:
    """One client socket on the loop (see the module doc)."""

    def __init__(self, service: ProcessLockingService, sock, on_close):
        self.service, self.sock, self.on_close = service, sock, on_close
        self.inbox, self.outbox = bytearray(), bytearray()
        self.tokens: list[int] = []  # its bus subscriptions
        self.events = 0  # selector events registered for the socket
        #: A request is in flight / the client sent its last byte / no
        #: more requests, close once the output is sent / closed.
        self.busy = self.eof = self.closing = self.closed = False
        self._watch()

    @contained
    def on_ready(self, events: int) -> None:
        if events & EVENT_READ:
            with contextlib.suppress(BlockingIOError):
                data = self.sock.recv(MAX_LINE)
                self.inbox += data
                self.eof = not data
            self.advance()
        self.flush()

    def advance(self) -> None:
        """Handle buffered lines until one is in flight; after the last
        line of a client that hung up, finish."""
        inbox = self.inbox
        while not (self.busy or self.closing):
            end = inbox.find(b"\n", 0, MAX_LINE + 1) + 1
            if not end and len(inbox) > MAX_LINE:
                inbox.clear()
                self.write(error_response(None, "bad-request", TOO_LONG))
                return self.finish()
            if not (end or self.eof):
                return
            if not (end or inbox):
                return self.finish()
            line = bytes(inbox[: end or len(inbox)])
            del inbox[: len(line)]
            self.handle(line)

    def handle(self, line: bytes) -> None:
        if not line.strip():
            return
        try:
            request = decode_line(line)
        except WireError as exc:
            return self.write(error_response(None, exc.code, exc.message))
        if request["cmd"] == "subscribe":
            return self.write(self.subscribe(request))
        if request["cmd"] == "unsubscribe":
            return self.write(self.unsubscribe(request))
        fut = self.service.execute(request)
        if fut.done():
            return self.answer(request, fut)
        self.busy = True
        # The drain resolves ``fut`` on this thread, outside the loop;
        # the answer goes out at the loop's next turn.
        loop = self.service.loop
        fut.add_done_callback(
            lambda _: loop.call_soon(partial(self.resume, request, fut))
        )

    @contained
    def resume(self, request: dict, fut: Future) -> None:
        self.busy = False
        if not self.closed:
            self.answer(request, fut)
            self.advance()
            self.flush()

    def answer(self, request: dict, fut: Future) -> None:
        req_id = request.get("id")
        try:
            self.write(ok_response(req_id, **fut.result()))
        except ServiceError as exc:
            self.write(error_response(req_id, exc.code, exc.message))
        if request["cmd"] == "bye":
            self.finish()

    def subscribe(self, request: dict) -> dict:
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
        token = self.service.bus.subscribe(topics, self.push_event)
        self.tokens.append(token)
        return ok_response(req_id, token=token, topics=topics)

    def unsubscribe(self, request: dict) -> dict:
        req_id, token = request.get("id"), request.get("token")
        tokens, bus = self.tokens, self.service.bus
        if token is None:
            dropped = [t for t in tokens if bus.unsubscribe(t)]
            tokens.clear()
            return ok_response(req_id, dropped=len(dropped))
        if token not in tokens:
            return error_response(
                req_id, "bad-request", f"unknown subscription {token!r}"
            )
        tokens.remove(token)
        bus.unsubscribe(token)
        return ok_response(req_id, dropped=1)

    def write(self, frame: dict) -> None:
        self.outbox += encode(frame)

    def push_event(self, topic: str, record: dict) -> None:
        # Published from a drain; sent once the socket is writable.
        self.write(event_frame(topic, record))
        self._watch()

    def flush(self) -> None:
        """Send what the kernel takes; the rest waits for writable."""
        if self.outbox:
            with contextlib.suppress(BlockingIOError):
                del self.outbox[: self.sock.send(self.outbox)]
        if self.closing and not self.outbox:
            return self.close()
        self._watch()

    def _watch(self) -> None:
        """Select for reading unless the client is done or the input
        buffer is full, and for writing while output waits."""
        full = len(self.inbox) > MAX_LINE
        events = 0 if self.closing or self.eof or full else EVENT_READ
        events |= EVENT_WRITE if self.outbox else 0
        if events != self.events:
            selector = self.service.loop.selector
            if not self.events:
                selector.register(self.sock, events, self.on_ready)
            elif events:
                selector.modify(self.sock, events, self.on_ready)
            else:
                selector.unregister(self.sock)
            self.events = events

    def finish(self) -> None:
        """Take no more requests and drop the subscriptions; the
        connection closes once its output is sent."""
        self.closing = True
        for token in self.tokens:
            self.service.bus.unsubscribe(token)
        self.tokens.clear()

    def close(self) -> None:
        if not self.closed:
            self.finish()
            self.closed = True
            if self.events:
                self.service.loop.selector.unregister(self.sock)
            self.sock.close()
            self.on_close(self)


def serve(
    service: ProcessLockingService,
    host: str = "127.0.0.1",
    port: int = 7453,
    *,
    metrics_port: int | None = None,
    on_ready=None,
    shutdown: Future | None = None,
) -> None:
    """Register the listener on ``service.loop`` and return; ``host``
    calls this as ``main``.  ``on_ready(host, port)`` fires once bound.
    Resolving ``shutdown`` (from any thread), or SIGTERM/SIGINT on the
    main thread, stops accepting, drains, lingers up to 5 s for clients
    and stops the service.  With a ``metrics_port`` a ``/metrics``
    sidecar runs as ``service.sidecar`` from before ``on_ready``.
    """
    loop = service.loop
    if metrics_port is not None:
        from repro.server.sidecar import MetricsSidecar

        service.sidecar = MetricsSidecar(
            service, host, metrics_port
        ).start()
    family, _, _, _, address = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )[0]
    listener = socket.create_server(address, family=family, backlog=128)
    listener.setblocking(False)
    connections: set[Connection] = set()
    lingering = []  # non-empty once the drain is done
    previous = {}  # signal handlers to put back

    def accept(events: int) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        with contextlib.suppress(OSError):  # reset: its recv will say
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connections.add(Connection(service, sock, closed))

    def closed(conn: Connection) -> None:
        connections.discard(conn)
        if lingering and not connections:
            end()

    def begin() -> None:
        if listener.fileno() < 0:
            return
        loop.selector.unregister(listener)
        listener.close()
        if service._drained.is_set():
            return wait_for_clients()
        service.execute({"cmd": "drain"}).add_done_callback(
            lambda _: loop.call_soon(wait_for_clients)
        )

    def wait_for_clients() -> None:
        lingering.append(True)
        loop.call_later(5.0, end)
        if not connections:
            end()

    def end() -> None:
        lingering.clear()  # idempotent: the timer may follow a close
        for conn in list(connections):
            conn.close()
        if service.sidecar is not None:
            service.sidecar.stop()
            service.sidecar = None
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        service.stop()

    loop.selector.register(listener, EVENT_READ, accept)
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(
                sig, lambda signum, frame: service.wake(begin)
            )
    if shutdown is not None:
        shutdown.add_done_callback(lambda _: service.wake(begin))
    if on_ready is not None:
        on_ready(*listener.getsockname()[:2])

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
        partial(
            serve,
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
        self._shutdown: Future = Future()
        self._thread: threading.Thread | None = None

    def stop(self) -> None:
        """Trigger the graceful-drain path and join the thread."""
        if not self._shutdown.done():
            self._shutdown.set_result(None)
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
                partial(
                    serve,
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
