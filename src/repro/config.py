"""One registry for every ``REPRO_*`` environment knob.

Historically each subsystem read its own environment variable inline
(``ManagerConfig`` field factories, the service's flight recorder),
which made the full knob surface hard to
discover and easy to drift.  This module is now the single source of
truth: every knob is declared once with its environment variable, its
default, its clamp, and a one-line description, and every consumer
resolves through the same helper.

Resolution order (strictly, for every knob):

1. an **explicit override** passed by the caller (a CLI flag or a
   config-object field the caller set) wins;
2. otherwise the **environment variable** (an empty one is unset);
3. otherwise the built-in **default**.

``repro config`` renders the table below with each knob's current value
and where it came from, so a deployment can always answer "what is this
process actually running with?".
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "KNOBS",
    "Knob",
    "describe",
    "flight_events",
    "flight_path",
    "resolve",
    "store_fsync",
    "store_kind",
    "store_path",
]


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob."""

    #: Short name used by :func:`resolve` and the ``repro config`` table.
    name: str
    #: Environment variable consulted when no override is given.
    env: str
    #: Built-in default (already in parsed form; ``None`` = unset).
    default: object
    description: str
    #: Parser applied to the raw string (override values are assumed to
    #: be parsed already).  Receives the raw env string.
    parse: object = int
    #: Clamp applied to every parsed value (override or env), keeping
    #: the historical ``max(floor, ...)`` semantics in one place.
    floor: int | None = None


KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            name="flight_events",
            env="REPRO_FLIGHT_EVENTS",
            default=512,
            floor=1,
            description=(
                "flight-recorder ring capacity: last N trace events "
                "retained in the service for crash dumps"
            ),
        ),
        Knob(
            name="flight_path",
            env="REPRO_FLIGHT_PATH",
            default=None,
            parse=str,
            description=(
                "JSONL path the service dumps the flight recorder to "
                "on SIGTERM drain or unhandled errors (unset = dump "
                "only via the `dump` wire verb)"
            ),
        ),
        Knob(
            name="store_kind",
            env="REPRO_STORE",
            default=None,
            parse=str,
            description=(
                "durable storage backend: 'log' (append-only CRC32 "
                "frame log, the one kind); unset = no durability"
            ),
        ),
        Knob(
            name="store_path",
            env="REPRO_STORE_PATH",
            default=None,
            parse=str,
            description=(
                "directory of the durable store (unset = a fresh temp "
                "directory, which persists nothing across restarts on "
                "purpose)"
            ),
        ),
        Knob(
            name="store_fsync",
            env="REPRO_STORE_FSYNC",
            default="batch",
            parse=str,
            description=(
                "fsync policy of the durable store: 'always' (sync "
                "every append), 'batch' (sync every `sync_every` "
                "appends, 64 by default, and at every drain point), or "
                "'never' (leave syncing to the OS)"
            ),
        ),
    )
}


def resolve(name: str, override: object = None):
    """The effective value of one knob under the resolution order.

    ``override`` is the caller's explicit value (``None`` = not given);
    it is returned as-is apart from the knob's clamp, so CLI flags and
    config fields behave exactly like the historical inline reads.
    """
    knob = KNOBS[name]
    if override is not None:
        value = override
    else:
        raw = os.environ.get(knob.env)
        if not raw:
            value = knob.default
        else:
            value = knob.parse(raw)
    if knob.floor is not None and value is not None:
        value = max(knob.floor, value)
    return value


def source(name: str, override: object = None) -> str:
    """Where :func:`resolve` takes the value from, for the CLI table."""
    if override is not None:
        return "override"
    knob = KNOBS[name]
    if not os.environ.get(knob.env):
        return "default"
    return "env"


def describe() -> list[dict[str, object]]:
    """One row per knob: current value, origin, default, description."""
    rows = []
    for knob in KNOBS.values():
        value = resolve(knob.name)
        rows.append(
            {
                "knob": knob.name,
                "env": knob.env,
                "value": "unset" if value is None else value,
                "source": source(knob.name),
                "default": (
                    "unset" if knob.default is None else knob.default
                ),
                "description": knob.description,
            }
        )
    return rows


# Named accessors: the call sites read as documentation and the clamp
# semantics stay greppable next to their historical homes.
def flight_events(override: int | None = None) -> int:
    return resolve("flight_events", override)


def flight_path(override: str | None = None) -> str | None:
    return resolve("flight_path", override)


def store_kind(override: str | None = None) -> str | None:
    return resolve("store_kind", override)


def store_path(override: str | None = None) -> str | None:
    return resolve("store_path", override)


def store_fsync(override: str | None = None) -> str:
    return resolve("store_fsync", override)
