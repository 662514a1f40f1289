"""What an event costs the served engine when nobody listens: counts.

A timing guard on this path would flake; the work is countable.  With
no subscriber the bus bridge builds no flat record at all and the
registry's gauges are sampled once per drain, not once per event; a
subscription turns flattening on for the kinds it covers and for no
others.  Events nobody heard still consume sequence numbers, so a late
subscriber sees the tail of the stream an early one saw, byte for byte.
"""

from __future__ import annotations

import json
import threading

import repro.server.bridge as bridge
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec

CONTENDED = WorkloadSpec(
    n_processes=16,
    n_activity_types=12,
    conflict_density=0.6,
    failure_probability=0.04,
    seed=3,
)

#: Three passes over the catalog: ~1,700 events even though a cascade
#: victim now waits out the older process instead of re-colliding.
BURST = {"cmd": "submit", "count": 48, "wait": True}


class _Counted:
    """A service with counters on payload builds, gauge polls, drains."""

    def __init__(self, monkeypatch) -> None:
        self.payloads = self.samples = self.drains = 0
        build = bridge.flat_record

        def counting_record(seq, t, event):
            self.payloads += 1
            return build(seq, t, event)

        monkeypatch.setattr(bridge, "flat_record", counting_record)
        self.service = service = ProcessLockingService(
            ServiceConfig(spec=CONTENDED, seed=3)
        )
        sample = service.manager._gauge_sample

        def counting_sample():
            self.samples += 1
            return sample()

        service.tracer.bind_sampler(counting_sample)
        post_drain = service._post_drain

        def counting_drain():
            self.drains += 1
            post_drain()

        service._post_drain = counting_drain
        service.start()

    def burst(self) -> dict:
        return self.service.execute(dict(BURST)).result(timeout=120)


def test_unheard_events_build_nothing_and_sample_per_drain(monkeypatch):
    counted = _Counted(monkeypatch)
    service = counted.service
    try:
        counted.burst()
        emitted = service.bus.counters.published
        assert emitted > 1_000  # contended: there was plenty to describe
        assert counted.payloads == 0
        assert 1 <= counted.samples <= 2 * counted.drains
        assert service.metrics.events.total() == emitted

        commits: list[dict] = []
        service.bus.subscribe(
            ["process.commit"], lambda topic, record: commits.append(record)
        )
        outcome = counted.burst()
        committed = sum(
            row["outcome"] == "committed" for row in outcome["outcomes"]
        )
        assert committed > 0
        assert len(commits) == committed
        assert counted.payloads == committed
        assert counted.samples <= 2 * counted.drains
        assert service.bus.counters.published == service.metrics.events.total()
    finally:
        service.stop()


def _session(uid_floor, subscribe_early: bool):
    """Three bursts; a ``*`` subscriber from the start, or one that a
    second thread registers while the second burst is being served."""
    uid_floor.repin()
    service = ProcessLockingService(ServiceConfig(spec=CONTENDED, seed=3))
    frames: list[dict] = []

    def subscribe():
        service.bus.subscribe(
            ["*"],
            lambda topic, record: "seq" in record and frames.append(record),
        )

    if subscribe_early:
        subscribe()
    service.start()
    try:
        service.execute(dict(BURST)).result(timeout=120)
        pending = service.execute(dict(BURST))
        if not subscribe_early:
            late = threading.Thread(target=subscribe)
            late.start()
            late.join(timeout=30)
            assert not late.is_alive()
        pending.result(timeout=120)
        service.execute(dict(BURST)).result(timeout=120)
    finally:
        service.stop()  # a durable service emits its last snapshot here
    return frames, service.flight.appended


def test_late_subscriber_sees_the_tail_byte_for_byte(uid_floor):
    uid_floor.pin()
    whole, emitted = _session(uid_floor, subscribe_early=True)
    tail, emitted_again = _session(uid_floor, subscribe_early=False)
    assert emitted_again == emitted == len(whole)
    first = emitted - len(tail)
    assert 0 < first < emitted
    assert [json.dumps(frame) for frame in tail] == [
        json.dumps(frame) for frame in whole[first:]
    ]
    # Every frame carries its global emission index: the events before
    # the subscription consumed sequence numbers unheard.
    assert [frame["seq"] for frame in tail] == list(range(first, emitted))
