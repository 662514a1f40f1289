"""Service metrics plane over the wire: METRICS and DUMP verbs.

Covers the verb round-trips, that the ``stats`` verb and the registry
read one fold, the wall submit-to-terminal histogram, and post-drain
availability (both verbs stay usable after DRAIN for post-mortems).
"""

from __future__ import annotations

import threading

import pytest

from repro.client import ServiceClient
from repro.obs import parse_prometheus, replay_metrics
from repro.server.net import start_server_thread
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec


@pytest.fixture()
def server():
    handle = start_server_thread(
        ServiceConfig(
            spec=WorkloadSpec(
                n_processes=6, conflict_density=0.5, seed=5
            ),
            seed=5,
            flight_capacity=100_000,
        )
    )
    yield handle
    handle.stop()


def connect(handle) -> ServiceClient:
    return ServiceClient(handle.host, handle.port, timeout=30)


def _family(snapshot: dict, name: str) -> dict:
    for family in snapshot["metrics"]["families"]:
        if family["name"] == name:
            return family
    raise AssertionError(f"family {name} missing")


def _counter(snapshot: dict, name: str, **labels) -> float:
    total = 0.0
    for sample in _family(snapshot, name)["samples"]:
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


class TestMetricsVerb:
    def test_registry_tracks_live_work(self, server):
        with connect(server) as client:
            pids = client.submit(count=4, wait=True)["pids"]
            client.cancel(pids[0])  # already terminal -> no-op
            body = client.metrics()
            assert body["now"] > 0
            outcomes = _counter(
                body, "repro_process_outcomes_total"
            )
            assert outcomes == 4
            assert (
                _counter(body, "repro_process_submitted_total") == 4
            )
            # Service-level gauges are part of the same registry.
            _family(body, "repro_service_backlog")
            _family(body, "repro_bus_frames")

    def test_stats_and_metrics_read_one_fold(self, tmp_path):
        """``manager.stats`` is the registry's feeder: the ``stats``
        verb and every counter family read one object, cold and after
        a restart on the same store."""
        config = ServiceConfig(
            spec=WorkloadSpec(n_processes=6, conflict_density=0.5, seed=5),
            seed=5,
            store="log",
            store_path=str(tmp_path / "store"),
            store_fsync="never",
        )
        for restarted in (False, True):
            service = ProcessLockingService(config).start()
            try:
                assert (service.recovery is not None) == restarted
                fold = service.manager.stats
                assert fold is service.metrics is service.tracer.metrics
                assert fold.registry is service.metrics.registry
                service.execute(
                    {"cmd": "submit", "count": 6, "wait": True}
                ).result(timeout=60)
            finally:
                service.stop()

    def test_submit_to_commit_histogram_observes_every_pid(
        self, server
    ):
        with connect(server) as client:
            client.submit(count=5, wait=True)
            family = _family(
                client.metrics(), "repro_submit_to_commit_seconds"
            )
            total = sum(s["count"] for s in family["samples"])
            assert total == 5
            outcomes = {
                s["labels"]["outcome"] for s in family["samples"]
            }
            assert "committed" in outcomes

    def test_shard_queue_gauges_cover_every_shard(self, server):
        """The per-shard gauge (``repro_locks_held``, "shard" = the
        owning subsystem) keeps one sample per subsystem over the
        wire, zeros included, so its key set is stable."""
        with connect(server) as client:
            client.submit(count=2, wait=True)
            family = _family(client.metrics(), "repro_locks_held")
            shards = {s["labels"]["shard"] for s in family["samples"]}
            assert len(shards) >= 2  # zeros included: stable key set


class TestDumpVerb:
    def test_dump_returns_restorable_trace_records(self, server):
        with connect(server) as client:
            client.submit(count=3, wait=True)
            body = client.dump()
            assert body["retained"] == len(body["events"])
            assert body["appended"] >= body["retained"]
            kinds = {r["kind"] for r in body["events"]}
            assert "process.submit" in kinds
            assert "process.commit" in kinds
            # The restored records feed the replay path directly.
            metrics = replay_metrics(body["events"])
            assert metrics.outcomes.value(("committed",)) > 0

    def test_dump_window_matches_flight_capacity(self):
        handle = start_server_thread(
            ServiceConfig(
                spec=WorkloadSpec(n_processes=6, seed=5),
                seed=5,
                flight_capacity=16,
            )
        )
        try:
            with connect(handle) as client:
                client.submit(count=4, wait=True)
                body = client.dump()
                assert body["capacity"] == 16
                assert body["retained"] == 16
                assert body["appended"] > 16
                seqs = [r["seq"] for r in body["events"]]
                assert seqs == sorted(seqs)
        finally:
            handle.stop()


class TestPostDrain:
    def test_metrics_and_dump_survive_drain(self, server):
        with connect(server) as client:
            client.submit(count=2, wait=True)
            assert client.drain()["drained"] is True
            body = client.metrics()
            assert (
                _counter(body, "repro_process_submitted_total") == 2
            )
            dump = client.dump()
            assert dump["retained"] > 0

    def test_drain_settles_every_latency_sample(self, server):
        with connect(server) as client:
            client.submit(count=3)  # no wait: drain settles them
            client.drain()
            family = _family(
                client.metrics(), "repro_submit_to_commit_seconds"
            )
            assert sum(s["count"] for s in family["samples"]) == 3


class TestScrapedWhileServing:
    """The event feeder's counters, the flight ring and the bus's
    counters take no lock on the engine thread; a scrape on another
    thread copies before it iterates."""

    def test_scrapes_during_contended_bursts_miss_no_event(self):
        """Scraped while serving, the registry still saw every event
        and every pid's one outcome."""
        service = ProcessLockingService(
            ServiceConfig(
                spec=WorkloadSpec(
                    n_processes=16,
                    n_activity_types=12,
                    conflict_density=0.6,
                    failure_probability=0.04,
                    seed=3,
                ),
                seed=3,
            )
        ).start()
        stop, scrapes, errors = threading.Event(), [], []

        def scrape():
            try:
                while not stop.is_set():
                    parse_prometheus(service.render_metrics())
                    service.metrics_snapshot()
                    scrapes.append(len(service.flight))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            for program in (0, 5, 11):
                service.execute(
                    {"cmd": "submit", "program": program, "count": 48,
                     "wait": True}
                ).result(timeout=120)
        finally:
            stop.set()
            scraper.join(timeout=30)
        try:
            assert not errors, errors
            assert len(scrapes) > 3
            service.execute({"cmd": "drain"}).result(timeout=60)
            stats = service.execute({"cmd": "stats"}).result(timeout=30)
            body = service.metrics_snapshot()
        finally:
            service.stop()
        manager = stats["manager"]
        assert manager["resubmissions"] > 0  # it was contended
        assert manager["submitted"] == 144
        assert _counter(body, "repro_process_outcomes_total") == 144
        emitted = service.bus_tracer.emitted
        assert _counter(body, "repro_events_total") == emitted
        assert service.flight.appended == emitted
        assert stats["bus"]["published"] >= emitted
