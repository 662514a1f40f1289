"""Process locking as a service.

The ``repro.server`` package puts a network front door on the process
manager so that open-system clients — benchmark drivers, the CI smoke
battery, interactive tooling — can submit transactional processes,
watch their lifecycle, and cancel them over a socket instead of
scripting a closed simulation:

* :mod:`repro.server.bus` — the typed in-process event bus with topic
  subscriptions (exact, ``prefix.*``, and ``*`` patterns);
* :mod:`repro.server.bridge` — :class:`BusTracer`, a sink of the
  manager's fold that republishes every stamped decision event onto
  the bus, topic = the event's ``kind``;
* :mod:`repro.server.protocol` — the JSON-lines wire protocol
  (requests, responses, event frames) with canonical encoding so a
  scripted session is byte-deterministic;
* :mod:`repro.server.service` — :class:`ProcessLockingService`, the
  core: a command queue in front of a
  :class:`~repro.scheduler.manager.ProcessManager`, drained by one
  loop that also runs the wire's event loop between drains, overload
  shedding, graceful drain, and the CT/P-RC/prefix-reducibility
  battery over the live trace;
* :mod:`repro.server.loop` — that event loop: one :mod:`selectors`
  selector, a wake socketpair, a call deque and one timer;
* :mod:`repro.server.net` — the TCP server (``repro serve``) on it,
  with per-connection ordered delivery and SIGTERM drain.

One thread serves: it reads the wire, drains the engine, fsyncs and
answers, with no hand-off to a second thread.  In-process callers get
the same loop on a thread of its own
(:meth:`ProcessLockingService.start`).
"""

from repro.server.bridge import BusTracer
from repro.server.bus import EventBus, topic_matches
from repro.server.protocol import (
    COMMANDS,
    WireError,
    decode_line,
    encode,
    error_response,
    event_frame,
    ok_response,
)
from repro.server.service import ProcessLockingService, ServiceConfig

__all__ = [
    "COMMANDS",
    "BusTracer",
    "EventBus",
    "ProcessLockingService",
    "ServiceConfig",
    "WireError",
    "decode_line",
    "encode",
    "error_response",
    "event_frame",
    "ok_response",
    "topic_matches",
]
