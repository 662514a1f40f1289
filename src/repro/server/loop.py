"""The serving thread's event loop: one :mod:`selectors` selector (a
registered socket's ``data`` is its handler, called with the ready
events), a socketpair that wakes it from another thread or a signal
handler, a deque of calls and one timer.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import time
from collections import deque
from math import inf


class Loop:
    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self._calls: deque = deque()
        self._timer = (inf, None)  # (when, callback) of call_later
        self._stopping = False
        self._wake_in, self._wake_out = socket.socketpair()
        self._wake_in.setblocking(False)
        self._wake_out.setblocking(False)
        self.selector.register(
            self._wake_in,
            selectors.EVENT_READ,
            lambda events: self._wake_in.recv(4096),
        )

    def call_soon(self, callback) -> None:
        """Run ``callback()`` at the next turn (the loop's thread only)."""
        self._calls.append(callback)

    def call_soon_threadsafe(self, callback) -> None:
        """:meth:`call_soon` from any thread or a signal handler; once
        the loop is closed, the call is dropped."""
        self._calls.append(callback)
        with contextlib.suppress(OSError):  # full (a wake is pending)
            self._wake_out.send(b"\0")  # or closed

    def call_later(self, delay: float, callback) -> None:
        """Run ``callback()`` once ``delay`` seconds have passed.  The
        loop holds one such call (the shutdown's wait for clients)."""
        self._timer = (time.monotonic() + delay, callback)

    def stop(self) -> None:
        """End :meth:`run` after the current turn."""
        self._stopping = True

    def run(self, timeout: float | None = None) -> None:
        """Turn until :meth:`stop` or until ``timeout`` seconds have
        passed.  A turn waits for a ready socket, a call or a deadline,
        then runs the ready sockets' handlers, a due timer and every
        call queued by then."""
        calls = self._calls
        until = inf if timeout is None else time.monotonic() + timeout
        try:
            while True:
                wait = min(until, self._timer[0]) - time.monotonic()
                if calls or self._stopping:
                    wait = 0
                for key, events in self.selector.select(
                    None if wait == inf else max(wait, 0)
                ):
                    key.data(events)
                now = time.monotonic()
                if self._timer[0] <= now:
                    calls.append(self._timer[1])
                    self._timer = (inf, None)
                for _ in range(len(calls)):
                    calls.popleft()()
                if self._stopping or until <= now:
                    return
        finally:
            self._stopping = False

    def close(self) -> None:
        self._wake_in.close()
        self._wake_out.close()
        self.selector.close()
