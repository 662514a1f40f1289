"""Client library for the process-locking service.

:class:`ServiceClient` speaks the JSON-lines wire protocol of
:mod:`repro.server` over a plain TCP socket: a background reader
thread splits the inbound stream into responses (matched to pending
requests by the echoed ``id``) and pushed event frames (buffered in a
queue for :meth:`ServiceClient.next_event`), so callers may pipeline
requests and consume the event stream concurrently — the shapes the
benchmark harness and the CI smoke clients need.

>>> with ServiceClient("127.0.0.1", 7453) as client:   # doctest: +SKIP
...     client.subscribe("process.commit")
...     pids = client.submit(program=0, count=4)["pids"]
...     client.stats()["manager"]["committed"]
"""

from __future__ import annotations

import itertools
import json
import queue
import socket
import threading
from concurrent.futures import Future

from repro.obs.events import restore_record
from repro.server.protocol import encode


class ServiceCallError(Exception):
    """The server answered ``ok: false``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServiceClient:
    """Blocking convenience client over one service connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7453,
        timeout: float = 60.0,
    ) -> None:
        self.timeout = timeout
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._reader = self._sock.makefile("rb")
        self._send_mutex = threading.Lock()
        self._pending_mutex = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._ids = itertools.count(1)
        self.events: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        self._thread = threading.Thread(
            target=self._read_loop, name="repro-client", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for line in self._reader:
                if not line.strip():
                    continue
                try:
                    frame = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "event" in frame:
                    self.events.put(frame)
                    continue
                with self._pending_mutex:
                    fut = self._pending.pop(frame.get("id"), None)
                if fut is not None:
                    fut.set_result(frame)
        except (OSError, ValueError):
            pass
        finally:
            self._closed.set()
            with self._pending_mutex:
                pending, self._pending = self._pending, {}
            for fut in pending.values():
                if not fut.done():
                    fut.set_exception(
                        ConnectionError("connection closed")
                    )

    def call_async(self, cmd: str, **args) -> Future:
        """Send one request; the future resolves to the raw frame."""
        if self._closed.is_set():
            raise ConnectionError("connection closed")
        req_id = next(self._ids)
        fut: Future = Future()
        with self._pending_mutex:
            self._pending[req_id] = fut
        frame = {"cmd": cmd, "id": req_id, **args}
        with self._send_mutex:
            self._sock.sendall(encode(frame))
        return fut

    def call(self, cmd: str, **args) -> dict:
        """Round-trip one request; returns the response body.

        Raises :class:`ServiceCallError` on ``ok: false`` frames and
        :class:`ConnectionError` when the link dies first.
        """
        frame = self.call_async(cmd, **args).result(
            timeout=self.timeout
        )
        if not frame.get("ok"):
            err = frame.get("error") or {}
            raise ServiceCallError(
                err.get("code", "unknown"), err.get("message", "")
            )
        return {
            k: v for k, v in frame.items() if k not in ("id", "ok")
        }

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.call("ping")

    def submit(
        self,
        program: int = 0,
        count: int = 1,
        at: float = 0.0,
        wait: bool = False,
    ) -> dict:
        return self.call(
            "submit", program=program, count=count, at=at, wait=wait
        )

    def status(self, pid: int) -> dict:
        return self.call("status", pid=pid)

    def cancel(self, pid: int) -> dict:
        return self.call("cancel", pid=pid)

    def stats(self) -> dict:
        return self.call("stats")

    def check(self) -> dict:
        return self.call("check")

    def metrics(self) -> dict:
        """The server's metrics-registry snapshot (JSON form)."""
        return self.call("metrics")

    def dump(self) -> dict:
        """The server's flight-recorder window as trace records.

        The string spellings of non-finite floats are read back as
        numbers, in the fields that may hold one
        (:func:`repro.obs.events.restore_record`), so the records feed
        :func:`repro.obs.explain_process` and
        :func:`repro.obs.replay_metrics` directly.
        """
        body = self.call("dump")
        for record in body["events"]:
            restore_record(record)
        return body

    def drain(self) -> dict:
        return self.call("drain")

    def subscribe(self, *topics: str) -> dict:
        return self.call("subscribe", topics=list(topics) or ["*"])

    def unsubscribe(self, token: int | None = None) -> dict:
        if token is None:
            return self.call("unsubscribe")
        return self.call("unsubscribe", token=token)

    def next_event(self, timeout: float | None = None) -> dict | None:
        """Pop one pushed event frame; ``None`` on timeout.

        The frame's record is read back as :meth:`dump` reads its
        records, non-finite floats as numbers.
        """
        try:
            frame = self.events.get(
                timeout=self.timeout if timeout is None else timeout
            )
        except queue.Empty:
            return None
        restore_record(frame["record"])
        return frame

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say goodbye (best effort) and tear the socket down."""
        if not self._closed.is_set():
            try:
                self.call("bye")
            except Exception:
                pass
        try:
            self._sock.close()
        finally:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
