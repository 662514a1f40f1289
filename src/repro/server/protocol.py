"""JSON-lines wire protocol of the process-locking service.

Every frame — request, response, or pushed event — is one JSON object
per ``\\n``-terminated line, encoded canonically (sorted keys, no
whitespace) so a scripted session at a fixed seed is byte-identical
run to run.  The full specification lives in ``docs/service.md``.

Requests
--------
``{"cmd": <name>, "id": <client token>, ...args}`` — ``id`` is any
JSON value the client picks; the server echoes it verbatim on the
matching response so clients may pipeline.

Responses
---------
``{"id": ..., "ok": true, ...body}`` on success,
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``
on failure.  Well-known codes: ``bad-request`` (malformed frame or
arguments), ``unknown-command``, ``unknown-pid``, ``overloaded``
(submission shed at the socket), ``draining`` (server is shutting
down).

Events
------
``{"event": <topic>, "record": {...}}`` frames are pushed to
subscribed connections, interleaved with responses on the single
per-connection outbound stream (publish order is preserved).  A record
is strict JSON: a non-finite float is written as the string
``"Infinity"``, ``"-Infinity"`` or ``"NaN"``
(:func:`repro.obs.events.json_record`).
"""

from __future__ import annotations

import json

from repro.obs.events import json_record

#: The full command set.  ``submit``/``status``/``cancel`` drive the
#: process lifecycle; ``subscribe``/``unsubscribe`` manage event
#: delivery; ``stats``/``check``/``metrics``/``dump`` observe
#: (``metrics`` returns the registry snapshot, ``dump`` the
#: flight-recorder window); ``drain`` performs a graceful shutdown;
#: ``ping``/``bye`` frame sessions.
COMMANDS = frozenset(
    {
        "ping",
        "submit",
        "status",
        "cancel",
        "subscribe",
        "unsubscribe",
        "stats",
        "check",
        "metrics",
        "dump",
        "drain",
        "bye",
    }
)


class WireError(Exception):
    """A frame that cannot be parsed into a well-formed request."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def encode(frame: dict) -> bytes:
    """Canonical bytes of one frame (sorted keys, compact, newline)."""
    return (
        json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one request line; raises :class:`WireError` when bad."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("bad-request", f"not utf-8: {exc}") from None
    try:
        frame = json.loads(line)
    except (ValueError, RecursionError) as exc:  # nested too deep
        raise WireError("bad-request", f"not json: {exc}") from None
    if not isinstance(frame, dict):
        raise WireError("bad-request", "frame must be a json object")
    cmd = frame.get("cmd")
    if not isinstance(cmd, str):
        raise WireError("bad-request", "missing string field 'cmd'")
    if cmd not in COMMANDS:
        raise WireError(
            "unknown-command",
            f"unknown command {cmd!r}; choose from {sorted(COMMANDS)}",
        )
    return frame


def ok_response(req_id, **body) -> dict:
    """Success frame echoing the request's ``id``."""
    return {"id": req_id, "ok": True, **body}


def error_response(req_id, code: str, message: str) -> dict:
    """Failure frame with a machine code and a one-line message."""
    return {
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def event_frame(topic: str, record: dict) -> dict:
    """Pushed-event frame for one bus record, non-finite floats spelled
    as strings."""
    return {"event": topic, "record": json_record(record)}
