"""Socket-level tests: server thread + real clients over TCP."""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceCallError, ServiceClient
from repro.obs.events import ActivityClassified
from repro.server.net import MAX_LINE, start_server_thread
from repro.server.protocol import encode
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


def raw(handle) -> socket.socket:
    """A bare socket: frames read off it in the order they were sent."""
    return socket.create_connection((handle.host, handle.port), timeout=30)


def read_frames(sock: socket.socket, until_id) -> list[dict]:
    """Every frame up to and including the response ``until_id``."""
    frames = []
    with sock.makefile("rb") as reader:
        while not frames or frames[-1].get("id") != until_id:
            frames.append(json.loads(reader.readline()))
    return frames


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

    def test_five_pipelined_requests_are_answered_in_id_order(
        self, server
    ):
        """One ``sendall``, five lines: one is in flight at a time, so
        ``status`` sees the submit before it as done."""
        requests = [
            {"cmd": "ping", "id": 1},
            {"cmd": "submit", "id": 2, "count": 2},
            {"cmd": "status", "id": 3, "pid": 1},
            {"cmd": "stats", "id": 4},
            {"cmd": "ping", "id": 5},
        ]
        with raw(server) as sock:
            sock.sendall(b"".join(map(encode, requests)))
            frames = read_frames(sock, until_id=5)
        assert [frame["id"] for frame in frames] == [1, 2, 3, 4, 5]
        assert all(frame["ok"] for frame in frames), frames
        assert frames[1]["pids"] == [1, 2]
        assert frames[2]["state"] == "done"
        assert frames[3]["manager"]["submitted"] == 2

    def test_a_drains_decisions_go_out_before_its_response(self, server):
        topics = ["process.commit", "process.abort"]
        with raw(server) as sock:
            sock.sendall(
                encode({"cmd": "subscribe", "id": 1, "topics": topics})
                + encode({"cmd": "submit", "id": 2, "count": 3, "wait": True})
            )
            subscribed, *events, answer = read_frames(sock, until_id=2)
        assert subscribed["ok"] and answer["ok"]
        assert {frame["event"] for frame in events} <= set(topics)
        assert answer["pids"] == [1, 2, 3]
        assert {frame["record"]["pid"] for frame in events} == {1, 2, 3}
        committed = {
            frame["record"]["pid"]
            for frame in events
            if frame["event"] == "process.commit"
        }
        assert committed == {
            row["pid"]
            for row in answer["outcomes"]
            if row["outcome"] == "committed"
        }

    def test_an_over_long_line_is_refused_and_its_connection_closed(
        self, server
    ):
        head, tail = b'{"cmd":"ping","id":1,"pad":"', b'"}'
        at_limit = head + b"x" * (MAX_LINE - len(head + tail)) + tail
        with connect(server) as bystander, raw(server) as sock:
            sock.sendall(at_limit + b"\n")
            assert read_frames(sock, until_id=1)[0]["pong"] is True
            sock.sendall(at_limit[:-2] + b'x"}\n')
            with sock.makefile("rb") as reader:
                frame = json.loads(reader.readline())
                assert reader.readline() == b""  # closed by the server
            assert frame["id"] is None
            assert frame["error"]["code"] == "bad-request"
            assert f"{MAX_LINE}-byte limit" in frame["error"]["message"]
            assert bystander.ping()["pong"] is True

    def test_a_deeply_nested_line_is_a_bad_request(self, server):
        """``json`` raises ``RecursionError`` on it, not a decode error."""
        with connect(server) as bystander, raw(server) as sock:
            sock.sendall(b"[" * 5000 + b"\n" + encode({"cmd": "ping", "id": 2}))
            refused, pong = read_frames(sock, until_id=2)
            assert refused["error"]["code"] == "bad-request"
            assert pong["pong"] is True
            assert bystander.ping()["pong"] is True
        assert server.service.failed is None

    def test_a_handler_error_closes_only_its_connection(
        self, server, monkeypatch, capsys
    ):
        import repro.server.net as net

        decode = net.decode_line

        def faulty(line):
            if b"boom" in line:
                raise RuntimeError("boom")
            return decode(line)

        monkeypatch.setattr(net, "decode_line", faulty)
        with connect(server) as bystander, raw(server) as sock:
            sock.sendall(b'{"cmd": "ping", "boom": 1}\n')
            assert sock.makefile("rb").readline() == b""  # closed
            assert bystander.ping()["pong"] is True
        assert server.service.failed is None
        assert "RuntimeError: boom" in capsys.readouterr().err

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

    def test_every_pushed_frame_is_strict_json(self, server):
        """At Wcc* = inf every ``wcc.classify`` carries an infinite
        threshold: pushed frames spell it as a string, so a strict
        parser takes every line of the session."""

        def reject(token):
            raise AssertionError(f"non-strict JSON constant: {token}")

        with raw(server) as sock:
            sock.sendall(encode({"cmd": "subscribe", "id": 1}))
            sock.sendall(
                encode({"cmd": "submit", "id": 2, "count": 1, "wait": True})
            )
            lines = []
            with sock.makefile("rb") as reader:
                while not lines or b'"id":2' not in lines[-1]:
                    lines.append(reader.readline())
        frames = [json.loads(line, parse_constant=reject) for line in lines]
        classified = [
            frame["record"]
            for frame in frames
            if frame.get("event") == "wcc.classify"
        ]
        assert classified
        assert all(r["threshold"] == "Infinity" for r in classified)

    def test_dump_keeps_a_name_spelled_like_a_non_finite_float(
        self, server
    ):
        with connect(server) as client:
            client.submit(wait=True)
            # The engine is idle once the waited submit is answered.
            server.service.flight.append(
                10**6, 9.0, ActivityClassified(
                    1, 0, "NaN", "C", 2.5, math.inf, False, False
                )
            )
            dumped = client.dump()["events"]
        (record,) = [r for r in dumped if r["seq"] == 10**6]
        assert record["activity"] == "NaN"
        assert record["wcc"] == 2.5 and record["threshold"] == math.inf

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


class TestDisconnect:
    def test_a_client_gone_mid_wait_leaves_the_loop_serving(self):
        """The client subscribes, submits with ``wait`` and hangs up
        while its processes run (paced): the next client is answered,
        and the closed connection's subscription goes."""
        handle = start_server_thread(
            ServiceConfig(
                spec=WorkloadSpec(n_processes=6, seed=5),
                seed=5,
                time_scale=20,
                tick=0.005,
            )
        )
        bus = handle.service.bus
        subscribe = encode({"cmd": "subscribe", "id": 1})
        submit = encode({"cmd": "submit", "id": 2, "count": 4, "wait": True})
        try:
            with connect(handle) as watcher:
                with raw(handle) as sock:
                    sock.sendall(subscribe + submit)
                    deadline = time.monotonic() + 10
                    while watcher.stats()["service"]["waiters"] != 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    assert bus.subscriber_count == 1
                with connect(handle) as client:
                    assert client.ping()["pong"] is True
                deadline = time.monotonic() + 30
                while bus.subscriber_count:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                while watcher.stats()["service"]["waiters"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert watcher.ping()["pong"] is True
        finally:
            handle.stop()
        assert not handle._thread.is_alive()
        assert not handle.service.manager.undecided()


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
