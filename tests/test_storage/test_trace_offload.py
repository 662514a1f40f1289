"""The served trace lives in the store; memory holds its tail.

A durable service's recorder forgets the events each snapshot made
durable, and its carried verdict has seen them: nothing reads them back
(``docs/persistence.md``, "The trace after a snapshot"); these tests
read them through ``Store.trace``.  These tests
hold the promises that rest on it: the tail stays within one snapshot
cadence; the schedule read back equals the one an in-memory service
keeps whole, event for event and verdict for verdict; and after a
``kill -9`` the spliced schedule read through the store is complete
and CT / P-RC-correct.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.faults.harness import canonical_trace
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec
from repro.theory.criteria import (
    check_process_recoverability,
    has_correct_termination,
    is_prefix_reducible,
    is_process_recoverable,
)
from tests.test_storage.stored import stored_schedule

#: The benchmark's grounded catalog.
SPEC = WorkloadSpec(
    n_processes=8,
    n_activity_types=12,
    conflict_density=0.3,
    failure_probability=0.04,
    grounded=True,
    seed=3,
)
CADENCE = 48


def _config(store=None, path=None, **overrides) -> ServiceConfig:
    return ServiceConfig(
        spec=SPEC,
        seed=3,
        store=store,
        store_path=path,
        store_fsync="never",
        snapshot_every=overrides.pop("snapshot_every", CADENCE),
        **overrides,
    )


def _schedule(service):
    """The whole schedule ``service`` recorded, its stored prefix read
    through ``Store.trace``."""
    return stored_schedule(
        service.store,
        service.workload.programs,
        service.manager.trace,
        service.workload.conflicts.conflict,
    )


def _serve(config, requests: int, watch=None) -> dict:
    """One eager single-client session: ``requests`` waited submits,
    one process each; then the whole schedule and the ``check``
    verdicts.  ``watch(service)`` runs after every acknowledgement."""
    service = ProcessLockingService(config).start()
    try:
        for k in range(requests):
            service.execute(
                {"cmd": "submit", "program": k, "wait": True}
            ).result(timeout=60)
            if watch is not None:
                watch(service)
        return {
            "schedule": _schedule(service),
            "check": service.execute({"cmd": "check"}).result(timeout=60),
            "resident": len(service.manager.trace.events),
        }
    finally:
        service.stop()


def test_the_tail_stays_within_one_cadence_and_the_schedule_is_whole(
    tmp_path, monkeypatch, uid_floor
):
    """Few hundred processes: the durable session keeps only the events
    of the pids noted since its last snapshot, yet its schedule, digest
    and verdicts are those of the same session kept in memory."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    uid_floor.pin()
    kept = _serve(_config(), 300)
    tails = []

    def watch(service):
        trace = service.manager.trace
        # The tail is exactly what the last snapshot does not cover.
        assert len(trace) - len(trace.events) == service.plane._trace_len
        tails.append(list(trace.events))

    uid_floor.repin()
    durable = _serve(_config("log", str(tmp_path / "store")), 300, watch)

    total = len(durable["schedule"].events)
    assert kept["resident"] == total > 1_500
    # A process notes its submit and its outcome: a snapshot every
    # CADENCE / 2 processes, and the tail holds fewer.
    assert max(len({e.process[0] for e in tail}) for tail in tails) < (
        CADENCE // 2
    )
    assert max(map(len, tails)) < total / 10
    assert durable["resident"] == len(tails[-1])
    assert durable["schedule"].events == kept["schedule"].events
    assert canonical_trace(durable["schedule"].events) == canonical_trace(
        kept["schedule"].events
    )
    assert durable["check"] == kept["check"]
    assert durable["check"]["complete"]
    assert durable["check"]["correct_termination"]
    assert durable["check"]["process_recoverable"]


def _check_and_batch(service) -> dict:
    """One ``check``, under tracemalloc, against the batch functions
    over the whole schedule read back through ``Store.trace``."""
    tracemalloc.start()
    try:
        body = service.execute({"cmd": "check"}).result(timeout=60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"check allocated {peak} B at its peak"
    schedule = _schedule(service)
    complete = schedule.is_complete
    report = check_process_recoverability(schedule)
    assert body == {
        "events": len(schedule.events),
        "complete": complete,
        "correct_termination": (
            has_correct_termination(schedule) if complete else None
        ),
        "prefix_reducible": is_prefix_reducible(schedule),
        "process_recoverable": report.ok,
        "violations": len(report.violations),
        "conserved": True,
    }
    return body


def test_check_reads_the_carried_verdict_before_and_after_a_kill(
    tmp_path, monkeypatch
):
    """1,500 waited grounded submits: ``check`` reads the verdict the
    recorder carries — no rebuild, no read-back of the stored trace —
    and it is the batch verdict over the whole schedule; so again
    after the service is killed (no drain, no final snapshot) and
    restarted against its store, which streams the stored prefix
    through the new recorder's verdict once."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    config = _config("log", str(tmp_path / "store"))
    first = ProcessLockingService(config).start()
    for k in range(1_500):
        first.execute({"cmd": "submit", "program": k, "wait": True}).result(
            timeout=60
        )
    before = _check_and_batch(first)
    assert before["events"] > 8_000 and before["correct_termination"]
    first._stop.set()  # killed: the serving thread just ends
    first.wake()
    first._thread.join(timeout=10)
    first.store.close()

    second = ProcessLockingService(config).start()
    try:
        assert 0 < second.manager.trace.base <= before["events"]
        for k in range(40):
            second.execute(
                {"cmd": "submit", "program": k, "wait": True}
            ).result(timeout=60)
        after = _check_and_batch(second)
        assert after["events"] > second.manager.trace.base
        assert after["correct_termination"] and after["process_recoverable"]
    finally:
        second.stop()


_SERVE = """
import json, sys
from repro.server import net
from repro.server.service import ServiceConfig
from repro.sim.workload import WorkloadSpec

net.run_server(
    ServiceConfig(**dict(json.loads(sys.argv[1]),
                         spec=WorkloadSpec(**json.loads(sys.argv[2])))),
    host="127.0.0.1",
    port=0,
)
"""


def _spawn(config: ServiceConfig, spec: dict):
    """``run_server`` on ``config`` in a child process; ``(process,
    port)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src") + os.pathsep + (
        env.get("PYTHONPATH", "")
    )
    settings = {
        name: getattr(config, name)
        for name in (
            "seed", "store", "store_path", "store_fsync",
            "snapshot_every", "time_scale",
        )
    }
    process = subprocess.Popen(
        [sys.executable, "-c", _SERVE, json.dumps(settings),
         json.dumps(spec)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", line or "")
        if match:
            return process, int(match.group(1))
        if not line:
            break
    process.kill()
    pytest.fail("server never announced its port")


def test_kill_nine_then_the_schedule_read_through_the_store_is_correct(
    tmp_path,
):
    from repro.client import ServiceClient

    path = str(tmp_path / "store")
    paced = _config("log", path, snapshot_every=8, time_scale=100.0)
    spec = {
        name: getattr(SPEC, name)
        for name in (
            "n_processes", "n_activity_types", "conflict_density",
            "failure_probability", "grounded", "seed",
        )
    }
    server, port = _spawn(paced, spec)
    submitted = []
    try:
        with ServiceClient("127.0.0.1", port, timeout=30) as client:
            for k in range(10):
                body = client.submit(program=k, count=6, at=float(2 * k))
                submitted += body["pids"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                committed = client.stats()["manager"]["committed"]
                if 20 <= committed < len(submitted):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("workload never reached the kill window")
    finally:
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)

    service = ProcessLockingService(
        _config("log", path, snapshot_every=8)
    ).start()
    try:
        assert service.recovery is not None
        trace = service.manager.trace
        # The recovered recorder starts past the stored prefix.
        assert trace.base > 0
        service.execute({"cmd": "ping"}).result(timeout=60)
        for pid in submitted:
            assert service.execute({"cmd": "status", "pid": pid}).result(
                timeout=30
            )["state"] == "done"
        schedule = _schedule(service)
        assert len(schedule.events) == len(trace) > len(trace.events)
        assert schedule.is_complete
        assert has_correct_termination(schedule)
        assert is_process_recoverable(schedule)
        report = service.execute({"cmd": "check"}).result(timeout=60)
        assert report["complete"] and report["process_recoverable"]
        assert report["events"] == len(schedule.events)
    finally:
        service.stop()
