"""Restart recovery through the service: in-thread and kill -9.

The contract under test is the one ``docs/persistence.md`` states:
every submission acknowledged by a durable server survives its death —
after a restart on the same store, each acknowledged pid reaches a
terminal state (commit, abort-with-compensation, or cancel), the pid
sequence never regresses, and the spliced schedule still passes the
``check`` battery (completeness, CT, P-RC).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    n_processes=6,
    conflict_density=0.4,
    failure_probability=0.08,
    grounded=True,
    seed=5,
)


def _service(tmp_path, **overrides) -> ProcessLockingService:
    config = ServiceConfig(
        spec=overrides.pop("spec", SPEC),
        seed=5,
        store="log",
        store_path=str(tmp_path / "store"),
        store_fsync="never",
        snapshot_every=overrides.pop("snapshot_every", 32),
        **overrides,
    )
    return ProcessLockingService(config).start()


class TestInThreadRestart:
    def test_clean_stop_then_restart_restores_everything(
        self, tmp_path
    ):
        first = _service(tmp_path)
        outcome = first.execute(
            {"cmd": "submit", "count": 6, "wait": True}
        ).result(timeout=60)
        first.stop()
        second = _service(tmp_path)
        try:
            assert second.recovery is not None
            assert second.recovery.restored == 6
            for row in outcome["outcomes"]:
                status = second.execute(
                    {"cmd": "status", "pid": row["pid"]}
                ).result(timeout=30)
                assert status["state"] == "done"
                assert status["outcome"] == row["outcome"]
            report = second.execute({"cmd": "check"}).result(
                timeout=30
            )
            assert report["complete"]
            assert report["correct_termination"]
            assert report["process_recoverable"]
            fresh = second.execute(
                {"cmd": "submit", "count": 1}
            ).result(timeout=30)
            assert fresh["pids"] == [7]
        finally:
            second.stop()

    def test_latency_runs_from_the_virtual_time_a_submit_was_accepted(
        self, tmp_path
    ):
        """A later submit's ``latency`` is its ``committed_at`` less the
        engine's clock when the submit was accepted (``ping``'s ``now``:
        an eager engine is idle between requests), not its commit time;
        and ``status`` answers the same after a restart."""
        first = _service(tmp_path)
        statuses, accepted = {}, {}
        for program in range(4):
            now = first.execute({"cmd": "ping"}).result(timeout=30)["now"]
            (row,) = first.execute(
                {"cmd": "submit", "program": program, "wait": True}
            ).result(timeout=60)["outcomes"]
            status = first.execute(
                {"cmd": "status", "pid": row["pid"]}
            ).result(timeout=30)
            assert status["latency"] == row["latency"]
            statuses[row["pid"]], accepted[row["pid"]] = status, now
        first.stop()
        committed = [
            pid
            for pid, status in statuses.items()
            if status["outcome"] == "committed"
        ]
        assert max(accepted[pid] for pid in committed) > 0
        for pid in committed:
            status = statuses[pid]
            assert status["latency"] == pytest.approx(
                status["committed_at"] - accepted[pid]
            )
            assert 0 < status["latency"] <= status["committed_at"]
        second = _service(tmp_path)
        try:
            for pid, status in statuses.items():
                assert second.execute(
                    {"cmd": "status", "pid": pid}
                ).result(timeout=30) == status
        finally:
            second.stop()

    def test_latency_spanning_a_kill_is_the_offset_clock_interval(
        self, tmp_path
    ):
        """A waited submit cut by a kill: the restarted engine's clock
        starts at 0 and the tracer's offset moves on by the crash
        document's time, so the latency answered after the restart is
        the interval on that offset clock, not the new commit time
        less the old incarnation's submit time.  Driven a tick at a
        time on this thread, so no wall clock enters."""
        from tests.test_storage.test_crash_points import PACE, _turn

        def unstarted() -> ProcessLockingService:
            return ProcessLockingService(
                ServiceConfig(
                    spec=SPEC,
                    seed=5,
                    store="log",
                    store_path=str(tmp_path / "store"),
                    store_fsync="never",
                    time_scale=PACE,
                    snapshot_every=1,
                )
            )

        first = unstarted()
        (warm,) = _turn(
            first, 0, [{"cmd": "submit", "program": 0, "wait": True}]
        )
        tick = 0
        while not warm.done():
            tick += 1
            assert tick < 1000
            _turn(first, tick)
        cut = _turn(
            first, tick, [{"cmd": "submit", "program": 5, "wait": True}]
        )
        _turn(first, tick + 1)
        pid = max(first.manager.records)
        submitted_at = first.manager.records[pid].submitted_at
        assert submitted_at > 0 and first.manager.outcome(pid) is None
        first.store.close()  # killed: what is on disk is all there is
        assert not cut[0].done()

        second = unstarted()
        try:
            offset = second.manager.tracer.offset
            assert offset > 0
            _, answer = _turn(
                second, 0, [{"cmd": "drain"}, {"cmd": "status", "pid": pid}]
            )
        finally:
            second.store.close()
        status = answer.result(timeout=0)
        assert status["outcome"] == "committed"
        assert status["latency"] == pytest.approx(
            status["committed_at"] + offset - submitted_at
        )

    def test_abrupt_death_mid_flight_recovers(self, tmp_path):
        """Engine thread killed between ticks: no drain, no close."""
        first = _service(tmp_path, time_scale=30.0, snapshot_every=8)
        pids = []
        for k in range(6):
            body = first.execute(
                {"cmd": "submit", "program": k, "at": float(k)}
            ).result(timeout=30)
            pids += body["pids"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = first.execute({"cmd": "stats"}).result(timeout=30)
            if stats["manager"]["committed"] >= 1:
                break
            time.sleep(0.05)
        else:
            pytest.fail("no process committed before the kill")
        # Kill the engine thread without drain/flush/close — the
        # in-thread analog of SIGKILL (unbuffered appends are already
        # in the files; the store object is simply abandoned).
        first._stop.set()
        first._thread.join(timeout=10)
        second = _service(tmp_path, snapshot_every=8)
        try:
            assert second.recovery is not None
            assert second.recovery.recovered_anything
            # Force a drain-to-quiescence pass, then assert terminality.
            second.execute({"cmd": "ping"}).result(timeout=60)
            for pid in pids:
                status = second.execute(
                    {"cmd": "status", "pid": pid}
                ).result(timeout=30)
                assert status["state"] == "done", (
                    f"P{pid} not terminal after restart: {status}"
                )
            report = second.execute({"cmd": "check"}).result(
                timeout=30
            )
            assert report["complete"]
            assert report["correct_termination"]
            assert report["process_recoverable"]
        finally:
            second.stop()

    def test_crash_between_engine_drain_and_after_drain(self, tmp_path):
        """Dying after a drain ran but before its ``after_drain``
        journaled anything: the acknowledged burst is restored with its
        outcomes; the unacknowledged one left no record (its submits
        wait for the drain point, where they would have been elided),
        so its pids were never promised and are issued afresh; the
        spliced schedule is clean."""
        contended = SPEC.with_(
            n_processes=16, conflict_density=0.6, grounded=False
        )
        first = ProcessLockingService(
            ServiceConfig(
                spec=contended,
                seed=5,
                store="log",
                store_path=str(tmp_path / "store"),
                store_fsync="never",
                snapshot_every=100_000,
            )
        )
        post_drain = first._post_drain
        armed = threading.Event()

        def crash_when_armed():
            if not armed.is_set():
                return post_drain()
            first._stop.set()

        first._post_drain = crash_when_armed
        first.start()
        acknowledged = first.execute(
            {"cmd": "submit", "count": 16, "wait": True}
        ).result(timeout=60)
        armed.set()
        lost = first.execute({"cmd": "submit", "count": 16, "wait": True})
        first._thread.join(timeout=30)
        assert not first._thread.is_alive()
        assert not lost.done()  # never acknowledged

        second = _service(tmp_path, spec=contended)
        try:
            recovery = second.recovery
            assert (
                recovery.restored,
                recovery.resubmitted,
                recovery.adopted,
            ) == (16, 0, 0)
            second.execute({"cmd": "ping"}).result(timeout=60)
            for row in acknowledged["outcomes"]:
                status = second.execute(
                    {"cmd": "status", "pid": row["pid"]}
                ).result(timeout=30)
                assert status["outcome"] == row["outcome"]
            again = second.execute(
                {"cmd": "submit", "count": 16, "wait": True}
            ).result(timeout=60)
            assert again["pids"] == list(range(17, 33))
            for pid in range(17, 33):
                status = second.execute(
                    {"cmd": "status", "pid": pid}
                ).result(timeout=30)
                assert status["state"] == "done"
            report = second.execute({"cmd": "check"}).result(
                timeout=30
            )
            assert report["complete"]
            assert report["correct_termination"]
            assert report["process_recoverable"]
        finally:
            second.stop()

    def test_cancelled_outcome_survives_restart(self, tmp_path):
        first = _service(tmp_path, time_scale=5.0)
        body = first.execute(
            {"cmd": "submit", "count": 1, "at": 50.0}
        ).result(timeout=30)
        (pid,) = body["pids"]
        cancelled = first.execute(
            {"cmd": "cancel", "pid": pid}
        ).result(timeout=30)
        assert cancelled["cancelled"]
        first.stop()
        second = _service(tmp_path)
        try:
            status = second.execute(
                {"cmd": "status", "pid": pid}
            ).result(timeout=30)
            assert status["state"] == "done"
            assert status["outcome"] == "cancelled"
        finally:
            second.stop()

    @pytest.mark.parametrize("snapshot_every", (1, 32))
    def test_acknowledged_cancel_of_running_victim_survives_kill(
        self, tmp_path, snapshot_every
    ):
        """The cancel is acknowledged while compensations still run;
        the ``cancel`` record is all a restart has (cadence 32: the
        pid re-runs from its ``submit`` record; cadence 1: it is
        adopted from a snapshot) — and it must end ``cancelled``."""
        first = _service(
            tmp_path, time_scale=5.0, tick=0.005,
            snapshot_every=snapshot_every,
        )
        (pid,) = first.execute({"cmd": "submit", "program": 2}).result(
            timeout=30
        )["pids"]
        record = first.manager.records[pid]
        deadline = time.monotonic() + 30
        committed = first.manager.stats.activities.value
        while not committed(("committed",)):  # something to undo
            assert time.monotonic() < deadline and record.outcome is None
            time.sleep(0.005)
        assert first.execute({"cmd": "cancel", "pid": pid}).result(
            timeout=30
        )["cancelled"]
        assert first.manager.phase(pid) == "aborting"
        first._stop.set()  # as in test_abrupt_death_mid_flight_recovers
        first._thread.join(timeout=10)
        assert first.manager.outcome(pid) is None
        second = _service(tmp_path)
        try:
            second.execute({"cmd": "ping"}).result(timeout=60)
            status = second.execute(
                {"cmd": "status", "pid": pid}
            ).result(timeout=30)
            assert (status["state"], status["outcome"]) == (
                "done",
                "cancelled",
            )
            stats = second.execute({"cmd": "stats"}).result(timeout=30)
            assert stats["manager"]["cancellations"] == 1
            report = second.execute({"cmd": "check"}).result(timeout=30)
            assert report["complete"] and report["correct_termination"]
            assert report["conserved"]
        finally:
            second.stop()

    def test_restart_inside_the_resubmission_gap(self, tmp_path):
        """Killed while a cascade victim awaits its resubmission: the
        first incarnation's abort is not an outcome — no ``terminal``
        record, not ``done`` — and the pid finishes exactly once."""
        from repro.storage import PersistencePlane, Store
        from tests.test_storage.test_journal_golden import CONTENDED

        def open_service(**pacing):
            return _service(
                tmp_path, spec=CONTENDED, snapshot_every=1, **pacing
            )

        # One virtual unit of resubmit delay = 1 s of wall.
        first = open_service(time_scale=1.0, tick=0.005)
        pids = first.execute({"cmd": "submit", "count": 16}).result(
            timeout=30
        )["pids"]
        deadline = time.monotonic() + 60
        states: set[str] = set()
        while "awaiting-resubmit" not in states:  # asked on its thread
            assert time.monotonic() < deadline
            states = {
                first.execute({"cmd": "status", "pid": pid}).result(
                    timeout=30
                )["state"]
                for pid in pids
            }
        # A journal record, so this drain cuts a snapshot of the gap.
        pids += first.execute({"cmd": "submit"}).result(timeout=30)["pids"]
        first._stop.set()
        first._thread.join(timeout=10)

        store = Store.open("log", str(tmp_path / "store"))
        image, _ = PersistencePlane(
            store, first.workload.programs
        ).load_image()
        terminals = {
            entry["pid"]
            for entry in store.journal.records()
            if entry["kind"] == "terminal"
        }
        store.close()
        in_gap = [
            snapshot.pid
            for snapshot in image.snapshots
            if snapshot.resubmit_in is not None
        ]
        assert in_gap, "the last snapshot caught no pid in the gap"
        assert not terminals & set(in_gap)

        second = open_service(time_scale=1e-6, tick=0.005)
        try:
            for pid in in_gap:
                status = second.execute(
                    {"cmd": "status", "pid": pid}
                ).result(timeout=30)
                assert status["state"] == "awaiting-resubmit"
            assert second.execute({"cmd": "drain"}).result(timeout=120)[
                "quiesced"
            ]
            for pid in pids:
                status = second.execute(
                    {"cmd": "status", "pid": pid}
                ).result(timeout=30)
                assert status["state"] == "done"
                assert status["outcome"] in ("committed", "aborted")
            report = second.execute({"cmd": "check"}).result(timeout=60)
            assert report["complete"]
            assert report["correct_termination"]
            assert report["process_recoverable"]
            assert report["conserved"]
        finally:
            second.stop()
        store = Store.open("log", str(tmp_path / "store"))
        try:
            written = [
                entry["pid"]
                for entry in store.journal.records()
                if entry["kind"] == "terminal"
            ]
            assert sorted(written) == sorted(pids)  # one each
            assert store.verify()["ok"]
        finally:
            store.close()


@pytest.mark.slow
class TestKillNine:
    """A real server process, a real SIGKILL, a real restart."""

    def _spawn(
        self,
        store_path,
        time_scale,
        world=("--processes", "6", "--seed", "5", "--snapshot-every", "16"),
    ):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env.pop("REPRO_STORE", None)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                *world,
                "--store",
                "log",
                "--store-path",
                str(store_path),
                "--time-scale",
                str(time_scale),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            match = re.search(
                r"listening on [\d.]+:(\d+)", line
            )
            if match:
                port = int(match.group(1))
                break
        if port is None:
            process.kill()
            pytest.fail("server never announced its port")
        return process, port

    def test_kill_nine_mid_workload_recovers(self, tmp_path):
        from repro.client import ServiceClient

        store_path = tmp_path / "store"
        server, port = self._spawn(store_path, time_scale=25.0)
        submitted = []
        try:
            with ServiceClient("127.0.0.1", port, timeout=30) as client:
                for k in range(8):
                    body = client.submit(
                        program=k, count=3, at=float(2 * k)
                    )
                    submitted += body["pids"]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    stats = client.stats()
                    committed = stats["manager"]["committed"]
                    if 2 <= committed < len(submitted):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail(
                        "workload never reached the kill window"
                    )
        finally:
            # The moment under test: no drain, no flush, no goodbye.
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)

        restarted, port = self._spawn(store_path, time_scale=0.0)
        try:
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                client.ping()  # eager mode: one batch drains fully
                for pid in submitted:
                    status = client.status(pid)
                    assert status["state"] == "done", (
                        f"P{pid} not terminal after kill -9 restart:"
                        f" {status}"
                    )
                report = client.check()
                assert report["complete"]
                assert report["correct_termination"]
                assert report["process_recoverable"]
                assert report["violations"] == 0
                fresh = client.submit(count=1, wait=True)
                assert fresh["pids"] == [max(submitted) + 1]
                stats = client.stats()
                assert stats["store"]["kind"] == "log"
                assert stats["store"]["recovered"]["restored"] > 0
                client.drain()
        finally:
            restarted.terminate()
            restarted.wait(timeout=30)

    def test_kill_nine_while_a_pid_is_held_at_the_restart_gate(
        self, tmp_path
    ):
        """The hold is derived from live state: the image says only
        ``awaiting-resubmit``, and the restarted manager works out
        again what the pid waits behind."""
        from repro.client import ServiceClient
        from repro.storage import Store

        store_path = tmp_path / "store"
        world = (
            "--processes", "16", "--density", "0.6", "--seed", "3",
            "--snapshot-every", "1",
        )
        # Four virtual units a second: a hold lasts seconds of wall.
        server, port = self._spawn(store_path, 4.0, world)
        try:
            with ServiceClient("127.0.0.1", port, timeout=30) as client:
                submitted = client.submit(count=16)["pids"]
                held = None
                deadline = time.monotonic() + 60
                while held is None:
                    assert time.monotonic() < deadline, "nothing was held"
                    held = next(
                        (
                            status
                            for status in map(client.status, submitted)
                            if status.get("behind")
                        ),
                        None,
                    )
                assert held["state"] == "awaiting-resubmit"
                assert all(older < held["pid"] for older in held["behind"])
                # A journal record: this drain cuts a snapshot of the hold.
                submitted += client.submit(at=1000.0)["pids"]
                assert client.status(held["pid"]).get("behind")
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)

        # Restarted all but frozen, to look before anything moves.
        restarted, port = self._spawn(store_path, 1e-6, world)
        try:
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                status = client.status(held["pid"])
                assert status["state"] == "awaiting-resubmit"
                assert status["incarnation"] == held["incarnation"]
                assert status["behind"]  # re-tested after adoption
                assert client.drain()["quiesced"]
                for pid in submitted:
                    status = client.status(pid)
                    assert status["state"] == "done"
                    assert status["outcome"] in ("committed", "aborted")
                report = client.check()
                assert report["complete"]
                assert report["correct_termination"]
                assert report["process_recoverable"]
                assert report["conserved"]
        finally:
            restarted.terminate()
            restarted.wait(timeout=30)
        store = Store.open("log", str(store_path))
        try:
            assert store.verify()["ok"]
        finally:
            store.close()
