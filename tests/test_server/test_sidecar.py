"""HTTP metrics sidecar: scrape validity, parity, health, flight dump.

The double-scrape test is the in-tree version of the CI smoke job:
scrape, do work, scrape again, and assert every counter moved
monotonically — using our own exposition parser, no external client.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceClient
from repro.obs import read_jsonl, replay_metrics
from repro.server.net import start_server_thread
from repro.server.service import ServiceConfig
from repro.server.sidecar import PROMETHEUS_CONTENT_TYPE
from repro.sim.workload import WorkloadSpec
from tests.test_obs.exposition import parse_prometheus


@pytest.fixture()
def server():
    handle = start_server_thread(
        ServiceConfig(
            spec=WorkloadSpec(
                n_processes=6, conflict_density=0.5, seed=5
            ),
            seed=5,
        ),
        metrics_port=0,
    )
    yield handle
    handle.stop()


def _get(handle, path: str):
    with urllib.request.urlopen(
        f"http://{handle.host}:{handle.metrics_port}{path}", timeout=10
    ) as response:
        return response.status, response.headers, response.read()


def connect(handle) -> ServiceClient:
    return ServiceClient(handle.host, handle.port, timeout=30)


def _counters(text: str) -> dict:
    """Every counter sample of one scrape, keyed for comparison."""
    parsed = parse_prometheus(text)
    out = {}
    for name, family in parsed.items():
        if family["type"] != "counter":
            continue
        for key, value in family["samples"].items():
            out[key] = value
    return parsed, out


class TestScrape:
    def test_exposition_parses_and_counters_are_monotone(self, server):
        with connect(server) as client:
            client.submit(count=2, wait=True)
            status, headers, body = _get(server, "/metrics")
            assert status == 200
            assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            first, counters_1 = _counters(body.decode("utf-8"))
            assert "repro_process_outcomes_total" in first
            assert "repro_events_total" in first

            client.submit(count=3, wait=True)
            _, _, body = _get(server, "/metrics")
            second, counters_2 = _counters(body.decode("utf-8"))
            for key, before in counters_1.items():
                assert counters_2.get(key, 0) >= before, key
            submitted = counters_2[
                ("repro_process_submitted_total", frozenset())
            ]
            assert submitted == 5

    def test_json_endpoint_equals_wire_verb(self, server):
        with connect(server) as client:
            client.submit(count=2, wait=True)
            via_wire = client.metrics()
            _, headers, body = _get(server, "/metrics.json")
            assert headers["Content-Type"] == "application/json"
            via_http = json.loads(body)
            assert via_http["metrics"] == via_wire["metrics"]

    def test_healthz_flips_to_503_after_drain(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True
        with connect(server) as client:
            client.drain()
        try:
            status, _, body = _get(server, "/healthz")
        except urllib.error.HTTPError as error:
            status, body = error.code, error.read()
        assert status == 503
        assert json.loads(body)["drained"] is True

    def test_unknown_path_is_404(self, server):
        try:
            status, _, _ = _get(server, "/nope")
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 404


_SIGTERM_SERVER = """
import sys
from repro.cli import main
sys.exit(main([
    "serve", "--port", "0", "--metrics-port", "0",
    "--processes", "4", "--seed", "3",
]))
"""


class TestSigtermFlightDump:
    def test_drain_writes_the_flight_recorder_to_disk(self, tmp_path):
        flight_path = tmp_path / "flight.jsonl"
        env = os.environ.copy()
        env["REPRO_FLIGHT_PATH"] = str(flight_path)
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGTERM_SERVER],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            line = proc.stdout.readline().decode()
            assert "listening on" in line, line
            host_port = line.split("listening on ")[1].split()[0]
            host, port = host_port.rsplit(":", 1)
            metrics_line = proc.stdout.readline().decode()
            assert "metrics on http://" in metrics_line, metrics_line
            with ServiceClient(host, int(port), timeout=30) as client:
                client.submit(count=3, wait=True)
                proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err.decode()
            assert b"drained cleanly" in out

            assert flight_path.exists()
            records = read_jsonl(flight_path)
            assert records
            metrics = replay_metrics(records)
            assert metrics.outcomes.value(("committed",)) > 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
