"""Tests for the service core, hosted in-process (no sockets)."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.server.service import (
    ProcessLockingService,
    ServiceConfig,
    ServiceError,
)
from repro.sim.workload import WorkloadSpec


def make_service(**overrides) -> ProcessLockingService:
    defaults = dict(
        spec=WorkloadSpec(n_processes=4, seed=11), seed=11
    )
    defaults.update(overrides)
    return ProcessLockingService(ServiceConfig(**defaults)).start()


def call(service, **request) -> dict:
    return service.execute(request).result(timeout=30)


class TestLifecycle:
    def test_submit_wait_reports_outcomes(self):
        service = make_service()
        try:
            body = call(
                service, cmd="submit", program=0, count=3, wait=True
            )
            assert body["pids"] == [1, 2, 3]
            assert len(body["outcomes"]) == 3
            for row in body["outcomes"]:
                assert row["outcome"] in ("committed", "aborted")
                if row["outcome"] == "committed":
                    assert row["latency"] >= 0
        finally:
            service.stop()

    def test_status_after_quiescence(self):
        service = make_service()
        try:
            pid = call(service, cmd="submit", wait=True)["pids"][0]
            body = call(service, cmd="status", pid=pid)
            assert body["state"] == "done"
            assert body["outcome"] in ("committed", "aborted")
        finally:
            service.stop()

    def test_unknown_pid_errors(self):
        service = make_service()
        try:
            with pytest.raises(ServiceError) as excinfo:
                call(service, cmd="status", pid=999)
            assert excinfo.value.code == "unknown-pid"
            with pytest.raises(ServiceError) as excinfo:
                call(service, cmd="cancel", pid=999)
            assert excinfo.value.code == "unknown-pid"
        finally:
            service.stop()

    def test_bad_arguments_rejected(self):
        service = make_service()
        try:
            for request in (
                {"cmd": "submit", "count": 0},
                {"cmd": "submit", "program": "zero"},
                {"cmd": "submit", "at": -1},
                {"cmd": "status"},
            ):
                with pytest.raises(ServiceError) as excinfo:
                    call(service, **request)
                assert excinfo.value.code == "bad-request"
        finally:
            service.stop()

    def test_catalog_wraps_modulo(self):
        service = make_service()
        try:
            size = len(service.workload.programs)
            body = call(
                service,
                cmd="submit",
                program=size + 1,
                wait=True,
            )
            assert body["outcomes"][0]["outcome"] in (
                "committed",
                "aborted",
            )
        finally:
            service.stop()


class TestCancel:
    def test_cancel_pending_process_in_paced_mode(self):
        # A microscopic time scale keeps the far-future arrival
        # uninitiated for the duration of the test.
        service = make_service(time_scale=1e-6, tick=0.005)
        try:
            pid = call(
                service, cmd="submit", at=1_000_000.0
            )["pids"][0]
            body = call(service, cmd="cancel", pid=pid)
            assert body == {"pid": pid, "cancelled": True}
            status = call(service, cmd="status", pid=pid)
            assert status["state"] == "done"
            assert status["outcome"] == "cancelled"
        finally:
            service.stop()

    def test_cancel_after_termination_is_noop(self):
        service = make_service()
        try:
            pid = call(service, cmd="submit", wait=True)["pids"][0]
            body = call(service, cmd="cancel", pid=pid)
            assert body["cancelled"] is False
        finally:
            service.stop()

    def test_cancelled_stat_counts(self):
        service = make_service(time_scale=1e-6, tick=0.005)
        try:
            pid = call(service, cmd="submit", at=1e9)["pids"][0]
            call(service, cmd="cancel", pid=pid)
            stats = call(service, cmd="stats")
            assert stats["manager"]["cancellations"] == 1
        finally:
            service.stop()


class TestConfig:
    @pytest.mark.parametrize("time_scale", [math.nan, math.inf, -1.0])
    def test_time_scale_must_be_finite_and_non_negative(self, time_scale):
        """A NaN scale used to acknowledge submissions the engine never
        ran, and ``inf`` drove ``engine.now`` to ``inf`` and aborted
        every process."""
        with pytest.raises(ValueError, match="time_scale"):
            ServiceConfig(time_scale=time_scale)


class TestOverload:
    def test_backlog_shed_at_the_socket(self):
        service = make_service(
            time_scale=1e-6, tick=0.005, max_backlog=1
        )
        try:
            call(service, cmd="submit", at=1e9)
            # The mirror updates on the next engine tick; poll briefly.
            deadline = 200
            while (
                service.shed_reason("submit") is None and deadline > 0
            ):
                deadline -= 1
                time.sleep(0.005)
            shed = service.shed_reason("submit")
            assert shed is not None and shed[0] == "overloaded"
            with pytest.raises(ServiceError) as excinfo:
                call(service, cmd="submit")
            assert excinfo.value.code == "overloaded"
            # Non-submit commands still pass.
            assert call(service, cmd="ping")["pong"] is True
        finally:
            service.stop()

    def test_one_large_burst_is_served_not_fatal(self):
        """``count`` is unbounded and the backlog cap is tested per
        command, whatever its count: 400 simultaneous arrivals at
        density 0.6 chain more cascade victims than the interpreter
        has stack for."""
        service = make_service(
            spec=WorkloadSpec(
                n_processes=16,
                conflict_density=0.6,
                failure_probability=0.04,
                seed=3,
            ),
            seed=3,
        )
        try:
            body = call(service, cmd="submit", count=400, wait=True)
            assert len(body["outcomes"]) == 400
            assert service.failed is None
            check = call(service, cmd="check")
            assert check["conserved"] is True
            assert check["prefix_reducible"] is True
            assert check["process_recoverable"] is True
        finally:
            service.stop()

    def test_a_pure_osl_burst_is_served_not_fatal(self):
        """Pure OSL's cascade chain (four frames a victim) outgrew the
        stack on the fourth of these bursts, and every later request
        was answered ``internal``."""
        service = make_service(
            spec=WorkloadSpec(n_processes=16, conflict_density=0.6, seed=3),
            seed=3,
            protocol="osl-pure",
        )
        try:
            for count in (100, 200, 400, 800):
                body = call(service, cmd="submit", count=count, wait=True)
                assert len(body["outcomes"]) == count
            assert service.failed is None
            assert call(service, cmd="check")["conserved"] is True
        finally:
            service.stop()


class TestCheckAndDrain:
    def test_check_battery_on_live_trace(self):
        service = make_service()
        try:
            call(service, cmd="submit", count=4, wait=True)
            body = call(service, cmd="check")
            assert body["complete"] is True
            assert body["correct_termination"] is True
            assert body["prefix_reducible"] is True
            assert body["process_recoverable"] is True
            assert body["events"] > 0
        finally:
            service.stop()

    def test_drain_quiesces_and_rejects_new_work(self):
        service = make_service()
        try:
            call(service, cmd="submit", count=2, wait=True)
            body = call(service, cmd="drain")
            assert body["drained"] is True
            assert body["quiesced"] is True
            with pytest.raises(ServiceError) as excinfo:
                call(service, cmd="submit")
            assert excinfo.value.code == "draining"
            # Observability survives the drain.
            assert call(service, cmd="stats")["service"]["draining"]
        finally:
            service.stop()

    def test_drain_loses_no_inflight_process(self):
        service = make_service(time_scale=1e-6, tick=0.005)
        try:
            call(service, cmd="submit", count=3, at=50.0)
            body = call(service, cmd="drain")
            assert body["quiesced"] is True
            stats = body["manager"]
            settled = (
                stats["committed"]
                + stats["intrinsic_aborts"]
                + stats["cancellations"]
            )
            assert stats["submitted"] == 3
            assert settled >= 1  # every pid reached a terminal state
            for pid in (1, 2, 3):
                status = call(service, cmd="status", pid=pid)
                assert status["state"] == "done"
        finally:
            service.stop()


class TestOneServingThread:
    def test_commands_queued_in_one_turn_share_one_drain_and_fsync(
        self, tmp_path
    ):
        service = ProcessLockingService(
            ServiceConfig(
                spec=WorkloadSpec(n_processes=4, seed=11),
                seed=11,
                store="log",
                store_path=str(tmp_path),
                store_fsync="batch",
                store_sync_every=100_000,  # only a drain's flush syncs
            )
        )
        batches = []
        next_batch = service._next_batch

        def recording_next_batch():
            batch = next_batch()
            if batch:
                batches.append(len(batch))
            return batch

        service._next_batch = recording_next_batch
        fsyncs = service.store.stats()["fsyncs"]
        futures = [
            service.execute(request)
            for request in (
                {"cmd": "submit", "count": 2, "wait": True},
                {"cmd": "submit", "program": 1},
                {"cmd": "ping"},
            )
        ]
        service.start()
        try:
            waited, submitted, pong = (
                fut.result(timeout=30) for fut in futures
            )
            assert [row["pid"] for row in waited["outcomes"]] == [1, 2]
            assert submitted == {"pids": [3]}
            assert pong["pong"] is True
            assert batches == [3]
            assert service.store.stats()["fsyncs"] == fsyncs + 1
        finally:
            service.stop()

    def test_callers_on_many_threads_lose_no_command(self):
        """Each caller's ``execute`` queues and wakes the loop from its
        own thread; with the interpreter switching threads every 10 µs
        every command is still applied, and each exactly once."""
        service = make_service()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def caller() -> list[int]:
                return [
                    call(service, cmd="submit")["pids"][0]
                    for _ in range(25)
                ]

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(caller) for _ in range(4)]
                pids = [p for f in futures for p in f.result(timeout=60)]
            assert sorted(pids) == list(range(1, 101))
        finally:
            sys.setswitchinterval(interval)
            service.stop()

    def test_stop_on_the_serving_thread_drains_without_deadlock(self):
        service = make_service(time_scale=1e-6, tick=0.005)
        try:
            waiting = service.execute(
                {"cmd": "submit", "count": 3, "at": 50.0, "wait": True}
            )
            service.wake(service.stop)  # stop() called on its thread
            service._thread.join(timeout=30)
            assert not service._thread.is_alive()
            rows = waiting.result(timeout=0)["outcomes"]
            assert all(row["outcome"] for row in rows) and len(rows) == 3
            assert not service.manager.undecided()
        finally:
            service.stop()


#: Scripted session run by the determinism test: a fresh process each
#: time, because activity uids are a process-global counter by design
#: (the faults harness remaps them for the same reason).
_SESSION_SCRIPT = """
import sys
from repro.server.protocol import encode
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec

service = ProcessLockingService(
    ServiceConfig(spec=WorkloadSpec(n_processes=4, seed=11), seed=11)
).start()
chunks = []
service.bus.subscribe(
    ["process.*", "lock.*"],
    lambda topic, record: chunks.append(
        encode({"event": topic, "record": record})
    ),
)
for request in (
    {"cmd": "ping"},
    {"cmd": "submit", "count": 3, "wait": True},
    {"cmd": "status", "pid": 2},
    {"cmd": "stats"},
    {"cmd": "check"},
):
    chunks.append(encode(service.execute(request).result(30)))
service.stop()
sys.stdout.buffer.write(b"".join(chunks))
"""


class TestDeterminism:
    def test_scripted_session_is_byte_deterministic(self):
        import os
        import subprocess
        import sys

        def transcript() -> bytes:
            proc = subprocess.run(
                [sys.executable, "-c", _SESSION_SCRIPT],
                capture_output=True,
                env=os.environ.copy(),
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        first = transcript()
        assert b'"event":"process.commit"' in first
        assert first == transcript()
