"""Span recording for the traced server, attached from outside.

:func:`instrument` wraps the *instances* a built
:class:`~repro.server.service.ProcessLockingService` is made of — the
same technique as :func:`repro.obs.profiling.instrument` — so no file
under ``src/`` knows about the benchmark and an untraced server pays
nothing.  Every wrapped call records one span ``(name, start, end,
parent, request id)`` into per-thread columns; :meth:`Recorder.dump`
writes them out when the harness asks (``SIGUSR1``), and
:mod:`bench.layers` turns them into self times.

Spans nest by call stack, per thread.  The engine thread's root span is
the service loop itself, so the self times of everything on that thread
add up to the thread's wall and whatever no hook covers shows up as the
root's own self time instead of vanishing.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from array import array
from functools import partial

#: Span names: ``<layer>.<what>``; :mod:`bench.layers` maps them to
#: metric names.
LOOP = "server.service.loop"
IDLE = "server.service.idle"
APPLY = "server.service.apply"
POST_DRAIN = "server.service.post_drain"
EXECUTE = "server.service.execute"


class ThreadSpans:
    """The spans one thread recorded, as columns, and its open stack."""

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("q")
        self.stack: list[int] = []


class Recorder:
    """In-memory span store; one :class:`ThreadSpans` per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.threads: dict[int, ThreadSpans] = {}
        #: CPU seconds the instrumenting (asyncio) thread had used when
        #: serving began; its imports and set-up are not the server's.
        self.cpu_at_start = 0.0

    def _spans(self) -> ThreadSpans:
        ident = threading.get_ident()
        spans = self.threads.get(ident)
        if spans is None:
            spans = self.threads[ident] = ThreadSpans()
        return spans

    def caller(self, name: str, request_arg: int | None = None):
        """``call(func, *args)``: run ``func`` under a span ``name``.

        With ``request_arg``, that positional argument is the wire
        request and its integer ``id`` becomes the span's request id;
        otherwise a span inherits its parent's.
        """
        if name in self.names:
            name_id = self.names.index(name)
        else:
            name_id = len(self.names)
            self.names.append(name)
        clock = time.monotonic
        get_spans = self._spans

        def call(func, *args, **kwargs):
            spans = get_spans()
            stack = spans.stack
            index = len(spans.start)
            parent = stack[-1] if stack else -1
            if request_arg is not None:
                rid = args[request_arg].get("id")
                if type(rid) is not int:
                    rid = -1
            else:
                rid = spans.rid[parent] if stack else -1
            spans.name.append(name_id)
            spans.parent.append(parent)
            spans.rid.append(rid)
            spans.end.append(0.0)
            stack.append(index)
            # ``start`` goes last: a concurrent dump reads its length
            # and may trust every other column up to there.
            spans.start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                stack.pop()

        return call

    def wrap(self, name: str, func, request_arg: int | None = None):
        return partial(self.caller(name, request_arg), func)

    def dump(self, path: str) -> None:
        """Write every span recorded so far (``tmp`` + rename).

        Called on the main thread while the engine thread may still be
        ticking; columns are cut at the length of ``start`` and spans
        still open read ``end == 0``, which the reader closes at
        ``dumped_at``.
        """
        threads = {}
        for ident, spans in list(self.threads.items()):
            n = len(spans.start)
            threads[ident] = {
                "name": spans.name[:n],
                "start": spans.start[:n],
                "end": spans.end[:n],
                "parent": spans.parent[:n],
                "rid": spans.rid[:n],
            }
        document = {
            "names": list(self.names),
            "threads": threads,
            "dumped_at": time.monotonic(),
            # The dump runs on the asyncio thread (signal handler).
            "loop_cpu_s": time.thread_time() - self.cpu_at_start,
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as out:
            pickle.dump(document, out, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


def instrument(service, recorder: Recorder) -> None:
    """Wrap every layer boundary of a built, not yet started service."""
    from repro.server import net

    wrap = recorder.wrap

    def hook(owner, attribute: str, name: str, request_arg=None) -> None:
        setattr(
            owner,
            attribute,
            wrap(name, getattr(owner, attribute), request_arg),
        )

    # server.protocol / server.net: the asyncio thread.
    hook(net, "decode_line", "server.protocol.decode")
    hook(net, "encode", "server.protocol.encode")
    hook(service, "execute", EXECUTE, request_arg=0)
    bus = service.bus
    subscribe = bus.subscribe
    push = recorder.caller("server.net.push_event")
    bus.subscribe = lambda patterns, callback: subscribe(
        patterns, partial(push, callback)
    )

    # server.service: the engine thread, rooted at its loop.
    hook(service, "_run_loop", LOOP)
    hook(service, "_next_batch", IDLE)
    hook(service, "_apply", APPLY, request_arg=0)
    hook(service, "_post_drain", POST_DRAIN)

    # scheduler: the engine's dispatch, and the manager's handlers it
    # fires (every scheduled callback is one).
    manager = service.manager
    engine = manager.engine
    hook(manager, "submit", "scheduler.manager.submit")
    hook(engine, "run", "scheduler.engine.run")
    schedule = engine.schedule
    handle = recorder.caller("scheduler.manager.handler")
    engine.schedule = lambda delay, callback: schedule(
        delay, partial(handle, callback)
    )
    for attribute in ("_park", "_unpark", "_retry_parked"):
        hook(manager, attribute, "scheduler.manager.park_wake")
    hook(manager, "_resolve_wait_cycles", "core.deadlock.resolve")

    # core: the rules, and the lock table under them.
    protocol = manager.protocol
    for attribute in (
        "classify_regular",
        "request_activity_lock",
        "request_compensation_lock",
        "try_commit",
        "grant_c_direct",
        "probe_c_grants",
    ):
        hook(protocol, attribute, "core.protocol.rules")
    hook(protocol.table, "acquire", "core.sharding.acquire")
    hook(protocol.table, "release_all", "core.sharding.release")

    for subsystem in manager.subsystems or ():
        hook(subsystem, "execute_activity", "subsystems.execute")

    # storage: the plane's three entry points, the journal's encoder,
    # and the backend every namespace (journal, snapshot, subsystem
    # WAL and records) writes through.
    plane, store = service.plane, service.store
    hook(plane, "note_submit", "storage.plane.note_submit")
    hook(plane, "after_drain", "storage.plane.after_drain")
    hook(plane, "snapshot", "storage.plane.snapshot")
    hook(store.journal, "append", "storage.journal.append")
    hook(store.backend, "append", "storage.backend.append")
    hook(store.backend, "replace", "storage.backend.replace")
    hook(store.backend, "flush", "storage.backend.flush")

    # obs: the tee, then each consumer behind it.
    tracer = service.tracer
    hook(tracer, "emit", "obs.emit")
    hook(tracer.metrics, "observe", "obs.metrics_tee")
    hook(tracer.recorder, "append", "obs.flight")
    hook(service.bus_tracer, "emit", "server.bus.bridge_emit")
    hook(bus, "publish", "server.bus.publish")
    for sink in tracer.sinks:
        if sink is not service.bus_tracer:
            hook(sink, "emit", "obs.journal_tracer")
    recorder.cpu_at_start = time.thread_time()
