"""Typed in-process event bus with topic subscriptions.

The bus decouples the emitting side (the manager's tracer, bridged by
:class:`repro.server.bridge.BusTracer`, plus the service's own
lifecycle announcements) from consumers (connected ``SUBSCRIBE``
clients, tests, the benchmark harness).  Topics are the event ``kind``
strings of :mod:`repro.obs.events` — ``process.commit``,
``lock.defer``, ``fault.crash`` — plus the service's own
``service.*`` announcements.

Patterns
--------
* ``"*"`` matches every topic;
* ``"process.*"`` (trailing ``.*``) matches the whole ``process.``
  prefix;
* anything else matches exactly.

Delivery is synchronous on the publisher's thread: subscribers get the
record in publish order, and a subscriber that raises is counted in
:attr:`EventBus.dropped` rather than poisoning the publisher (the
thread that drives the engine must never die to a client callback).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass


def topic_matches(pattern: str, topic: str) -> bool:
    """Whether one subscription pattern covers one topic."""
    if pattern == "*":
        return True
    if pattern.endswith(".*"):
        return topic.startswith(pattern[:-1])
    return pattern == topic


@dataclass(frozen=True)
class Subscription:
    """One registered subscriber (immutable; replaced, never mutated)."""

    token: int
    patterns: tuple[str, ...]
    callback: Callable[[str, dict], None]

    def covers(self, topic: str) -> bool:
        return any(topic_matches(p, topic) for p in self.patterns)


@dataclass
class BusCounters:
    """Publish-side accounting, surfaced by the ``STATS`` command.

    Per-kind counts are the metrics registry's
    (``repro_events_total{kind}``).
    """

    published: int = 0
    delivered: int = 0
    dropped: int = 0


class EventBus:
    """Publish/subscribe fan-out over string topics; subscribers may
    come and go from any thread.

    Subscription state is copy-on-write under a lock: ``publish``
    reads the current subscriber tuple (one atomic attribute read) and
    calls the callbacks outside any lock, so a callback may itself
    subscribe or unsubscribe.  Publishing has one thread, the one that
    drives the engine (the bridge, and the service's own
    announcements), so :attr:`counters` are written without a lock.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._tokens = itertools.count(1)
        self._subs: tuple[Subscription, ...] = ()
        #: ``(subs, {topic: covering subs})`` for the ``_subs`` tuple it
        #: was computed from; a subscribe or unsubscribe replaces that
        #: tuple, which retires the whole cache at the next lookup.
        self._covering: tuple[tuple, dict] = ((), {})
        self.counters = BusCounters()

    def subscribe(
        self,
        patterns: Iterable[str],
        callback: Callable[[str, dict], None],
    ) -> int:
        """Register ``callback(topic, record)``; returns a token."""
        pats = tuple(patterns)
        if not pats:
            raise ValueError("subscription needs at least one pattern")
        sub = Subscription(
            token=next(self._tokens), patterns=pats, callback=callback
        )
        with self._mutex:
            self._subs = (*self._subs, sub)
        return sub.token

    def unsubscribe(self, token: int) -> bool:
        """Drop one subscription; ``False`` when already gone."""
        with self._mutex:
            kept = tuple(s for s in self._subs if s.token != token)
            changed = len(kept) != len(self._subs)
            self._subs = kept
        return changed

    def listeners(self, topic: str) -> tuple[Subscription, ...]:
        """The live subscriptions covering ``topic`` (often none).

        Answered from a per-topic cache keyed on the copy-on-write
        subscriber tuple, so a publisher asking before every event pays
        a dict lookup, and sees a subscribe or unsubscribe from another
        thread at its next call.
        """
        subs = self._subs
        cached_for, cache = self._covering
        if cached_for is not subs:
            cache = {}
            self._covering = (subs, cache)
        covering = cache.get(topic)
        if covering is None:
            covering = cache[topic] = tuple(
                sub for sub in subs if sub.covers(topic)
            )
        return covering

    def publish(self, topic: str, record: dict | None) -> int:
        """Deliver ``record`` to every covering subscriber.

        Returns the delivery count.  Callback exceptions are swallowed
        and counted (:attr:`BusCounters.dropped`) — the publisher is
        the thread that drives the engine, and must stay alive.

        A publisher that found no :meth:`listeners` may pass ``None``
        for a record it never built: the publish is counted, and a
        subscription that arrived in between starts at the next one.
        """
        counters = self.counters
        counters.published += 1
        if record is None:
            return 0
        delivered = 0
        for sub in self.listeners(topic):
            try:
                sub.callback(topic, record)
                delivered += 1
            except Exception:
                counters.dropped += 1
        counters.delivered += delivered
        return delivered

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)
