"""Tests for the event bus and the tracer bridge."""

import threading

from repro.obs.events import ProcessSubmitted
from repro.server.bridge import BusTracer
from repro.server.bus import EventBus, topic_matches


class TestTopicMatches:
    def test_exact(self):
        assert topic_matches("process.commit", "process.commit")
        assert not topic_matches("process.commit", "process.abort")

    def test_prefix(self):
        assert topic_matches("process.*", "process.commit")
        assert topic_matches("process.*", "process.cancel")
        assert not topic_matches("process.*", "lock.grant")
        # The prefix includes the dot: "process.*" != "processor.x".
        assert not topic_matches("process.*", "processor.x")

    def test_wildcard(self):
        assert topic_matches("*", "anything.at.all")


class TestEventBus:
    def test_publish_routes_by_pattern(self):
        bus = EventBus()
        seen: list[tuple[str, dict]] = []
        bus.subscribe(["process.*"], lambda t, r: seen.append((t, r)))
        bus.publish("process.commit", {"pid": 1})
        bus.publish("lock.grant", {"pid": 1})
        assert [t for t, _ in seen] == ["process.commit"]
        assert bus.counters.published == 2
        assert bus.counters.delivered == 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        token = bus.subscribe(["*"], lambda t, r: seen.append(t))
        assert bus.unsubscribe(token)
        assert not bus.unsubscribe(token)
        bus.publish("x", {})
        assert seen == []

    def test_raising_subscriber_is_counted_not_fatal(self):
        bus = EventBus()

        def bad(topic, record):
            raise RuntimeError("boom")

        good: list[str] = []
        bus.subscribe(["*"], bad)
        bus.subscribe(["*"], lambda t, r: good.append(t))
        bus.publish("x", {})
        assert good == ["x"]
        assert bus.counters.dropped == 1

    def test_empty_patterns_rejected(self):
        bus = EventBus()
        try:
            bus.subscribe([], lambda t, r: None)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_concurrent_publish_and_subscribe(self):
        bus = EventBus()
        seen = []
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                token = bus.subscribe(["*"], lambda t, r: None)
                bus.unsubscribe(token)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            bus.subscribe(["*"], lambda t, r: seen.append(t))
            for i in range(500):
                bus.publish("tick", {"i": i})
        finally:
            stop.set()
            thread.join()
        assert len(seen) == 500


class TestBusTracer:
    def test_emit_publishes_flat_record(self):
        bus = EventBus()
        tracer = BusTracer(bus)
        seen: list[tuple[str, dict]] = []
        bus.subscribe(["process.submit"], lambda t, r: seen.append((t, r)))
        tracer.bind_clock(lambda: 4.5)
        tracer.emit(ProcessSubmitted(pid=7))
        assert seen == [
            (
                "process.submit",
                {"seq": 0, "t": 4.5, "kind": "process.submit", "pid": 7},
            )
        ]
        assert tracer.emitted == 1

    def test_offset_applied_like_obs_tracer(self):
        bus = EventBus()
        tracer = BusTracer(bus)
        seen: list[dict] = []
        bus.subscribe(["*"], lambda t, r: seen.append(r))
        tracer.bind_clock(lambda: 1.0)
        tracer.offset = 10.0
        tracer.emit(ProcessSubmitted(pid=1))
        assert seen[-1]["t"] == 11.0

    def test_unheard_events_are_counted_and_keep_their_seq(self):
        bus = EventBus()
        tracer = BusTracer(bus)
        for pid in range(3):
            tracer.emit(ProcessSubmitted(pid=pid))
        seen: list[dict] = []
        token = bus.subscribe(["*"], lambda t, r: seen.append(r))
        tracer.emit(ProcessSubmitted(pid=3))
        bus.unsubscribe(token)
        tracer.emit(ProcessSubmitted(pid=4))
        assert [(r["seq"], r["pid"]) for r in seen] == [(3, 3)]
        assert tracer.emitted == 5
        assert bus.counters.published == 5
        assert bus.counters.delivered == 1

    def test_protocol_compatible(self):
        tracer = BusTracer(EventBus())
        tracer.bind_sampler(lambda: {"g": 1.0})  # accepted, unused
