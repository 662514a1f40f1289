"""Socket-level tests: server thread + real clients over TCP."""

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceCallError, ServiceClient
from repro.server.net import start_server_thread
from repro.server.service import ServiceConfig
from repro.sim.workload import WorkloadSpec
from tests.test_storage.test_journal_golden import CONTENDED


@pytest.fixture()
def server():
    handle = start_server_thread(
        ServiceConfig(
            spec=WorkloadSpec(n_processes=6, seed=5), seed=5
        )
    )
    yield handle
    handle.stop()


def connect(handle) -> ServiceClient:
    return ServiceClient(handle.host, handle.port, timeout=30)


class TestWire:
    def test_ping_and_stats(self, server):
        with connect(server) as client:
            assert client.ping()["pong"] is True
            stats = client.stats()
            assert stats["manager"]["submitted"] == 0
            assert stats["service"]["catalog_size"] == 6

    def test_submit_status_cancel_cycle(self, server):
        with connect(server) as client:
            pids = client.submit(count=2, wait=True)["pids"]
            assert pids == [1, 2]
            assert client.status(pids[0])["state"] == "done"
            assert client.cancel(pids[0])["cancelled"] is False

    def test_error_frames(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceCallError) as excinfo:
                client.status(404)
            assert excinfo.value.code == "unknown-pid"
            with pytest.raises(ServiceCallError) as excinfo:
                client.call("submit", count=0)
            assert excinfo.value.code == "bad-request"

    def test_malformed_line_answered_not_fatal(self, server):
        with connect(server) as client:
            with client._send_mutex:
                client._sock.sendall(b"this is not json\n")
            # The error frame has no id, so it lands in no pending
            # future; the connection must survive for the next call.
            time.sleep(0.1)
            assert client.ping()["pong"] is True

    def test_subscribe_streams_lifecycle_events(self, server):
        with connect(server) as client:
            client.subscribe("process.*")
            client.submit(count=2, wait=True)
            kinds = set()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                frame = client.next_event(timeout=1.0)
                if frame is None:
                    break
                kinds.add(frame["event"])
                if "process.commit" in kinds:
                    break
            assert "process.submit" in kinds
            assert "process.commit" in kinds

    def test_unsubscribe_stops_the_stream(self, server):
        with connect(server) as client:
            token = client.subscribe("process.*")["token"]
            client.unsubscribe(token)
            client.submit(wait=True)
            assert client.next_event(timeout=0.3) is None


class TestConcurrentClients:
    def test_four_clients_submit_in_parallel(self, server):
        results: list[dict] = []
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                with connect(server) as client:
                    body = client.submit(
                        program=index, count=2, wait=True
                    )
                    results.append(body)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == 4
        all_pids = sorted(
            pid for body in results for pid in body["pids"]
        )
        assert all_pids == list(range(1, 9))  # unique, no clashes
        with connect(server) as client:
            stats = client.stats()
            assert stats["manager"]["submitted"] == 8
            battery = client.check()
            assert battery["prefix_reducible"] is True
            assert battery["process_recoverable"] is True


class TestDrain:
    def test_stop_drains_cleanly(self):
        handle = start_server_thread(
            ServiceConfig(
                spec=WorkloadSpec(n_processes=4, seed=9), seed=9
            )
        )
        client = connect(handle)
        client.submit(count=3, wait=True)
        drain = client.drain()
        assert drain["drained"] is True
        assert drain["quiesced"] is True
        client.close()
        handle.stop()


    def test_stop_drains_a_paced_session_in_flight(self):
        """Two virtual units a wall second: the processes are still
        running when ``stop`` asks for the drain, and none is lost."""
        handle = start_server_thread(
            ServiceConfig(
                spec=WorkloadSpec(n_processes=4, seed=9),
                seed=9,
                time_scale=2.0,
                tick=0.005,
            )
        )
        service = handle.service
        try:
            with connect(handle) as client:
                pids = client.submit(count=6)["pids"]
                states = {client.status(pid)["state"] for pid in pids}
                assert states - {"done"}, states
        finally:
            handle.stop()
        assert not handle._thread.is_alive()
        assert service._drained.is_set()
        assert not service.manager.undecided()
        assert all(service.manager.outcome(pid) for pid in pids)


class TestOneServingThread:
    def test_the_engine_runs_on_the_thread_that_reads_the_wire(
        self, server
    ):
        with connect(server) as client:
            client.submit(count=2, wait=True)
            names = {thread.name for thread in threading.enumerate()}
        assert "repro-service-engine" not in names
        assert server.service._owner == server._thread.ident

    def test_an_engine_failure_is_answered_and_the_server_stops(self):
        """The engine dies between requests; the event loop goes on
        serving: the waiting submit and every later request get
        ``internal``, ``/healthz`` says 503, and ``stop`` returns."""
        handle = start_server_thread(
            ServiceConfig(
                spec=CONTENDED, seed=3, time_scale=200, tick=0.005
            ),
            metrics_port=0,
        )
        health = f"http://127.0.0.1:{handle.metrics_port}/healthz"
        try:
            with connect(handle) as client:
                with urllib.request.urlopen(health, timeout=5) as answer:
                    assert answer.status == 200
                waiting = client.call_async("submit", count=4, wait=True)

                def boom(process):
                    raise RuntimeError("callback exploded")

                handle.service.manager._finalize_commit = boom
                error = waiting.result(timeout=30)["error"]
                assert error["code"] == "internal"
                assert "RuntimeError: callback exploded" in error["message"]
                started = time.monotonic()
                for cmd in ("ping", "submit", "stats"):
                    with pytest.raises(ServiceCallError) as caught:
                        client.call(cmd)
                    assert caught.value.code == "internal"
                assert time.monotonic() - started < 1.0
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(health, timeout=5)
                refused.value.close()
                assert refused.value.code == 503
        finally:
            handle.stop()
        assert not handle._thread.is_alive()


def _serve_script(*flags: str) -> str:
    return (
        "import sys\n"
        "from repro.cli import main\n"
        "sys.exit(main(['serve', '--port', '0', '--processes', '4',"
        f" '--seed', '3', {', '.join(map(repr, flags))}]))\n"
    )


class TestSigterm:
    def _spawn(self, *flags: str):
        proc = subprocess.Popen(
            [sys.executable, "-c", _serve_script(*flags)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=os.environ.copy(),
        )
        line = proc.stdout.readline().decode()
        assert "listening on" in line, line
        host, port = line.split("listening on ")[1].split()[0].rsplit(":", 1)
        return proc, host, int(port)

    def _exits_cleanly(self, proc) -> None:
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err.decode()
        assert b"drained cleanly" in out, out + err

    def test_sigterm_drains_without_losing_processes(self):
        proc, host, port = self._spawn()
        try:
            with ServiceClient(host, port, timeout=30) as client:
                submitted = client.submit(count=3, wait=True)
                assert len(submitted["outcomes"]) == 3
                proc.send_signal(signal.SIGTERM)
                # The drain announcement reaches subscribers and the
                # link closes only after every process terminated.
            self._exits_cleanly(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    def test_sigterm_drains_a_paced_session_in_flight(self):
        proc, host, port = self._spawn("--time-scale", "2")
        try:
            with ServiceClient(host, port, timeout=30) as client:
                client.subscribe("service.drained")
                pids = client.submit(count=6)["pids"]
                states = {client.status(pid)["state"] for pid in pids}
                assert states - {"done"}, states
                proc.send_signal(signal.SIGTERM)
                frame = client.next_event(timeout=30)
                assert frame["event"] == "service.drained"
                assert frame["record"]["quiesced"] is True
            self._exits_cleanly(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
