"""The served face of a pid's lifecycle (no sockets).

What a client is told — by ``wait=true``, ``status`` and ``cancel`` —
is read from the manager's one record of the pid's fate: an
acknowledged outcome never changes, the resubmission gap is a state,
starvation is an outcome, and an exception out of the engine loop is
answered instead of hanging every future.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.scheduler.events import OUTCOMES
from repro.scheduler.manager import ManagerConfig
from repro.server.service import (
    ProcessLockingService,
    ServiceConfig,
    ServiceError,
)
from repro.server.sidecar import MetricsSidecar
from tests.test_storage.test_journal_golden import CONTENDED, GROUNDED
from tests.test_subsystems.oracles import let_a_writer_past_held_locks


def _service(**overrides) -> ProcessLockingService:
    config = ServiceConfig(**{"spec": CONTENDED, "seed": 3, **overrides})
    return ProcessLockingService(config).start()


def _call(service, **request) -> dict:
    return service.execute(request).result(timeout=60)


PACED = dict(time_scale=200, tick=0.005)


def test_paced_acknowledged_outcomes_never_change():
    """16 back-to-back single-pid ``wait=true`` submits: 9 of 16 were
    answered ``aborted`` for pids that then committed, when a pid in
    the resubmission gap was in neither of the manager's dicts."""
    service = _service(**PACED)
    try:
        waits = [
            service.execute({"cmd": "submit", "program": k, "wait": True})
            for k in range(16)
        ]
        told = {}
        for wait in waits:
            (row,) = wait.result(timeout=120)["outcomes"]
            told[row["pid"]] = row["outcome"]
        assert _call(service, cmd="drain")["quiesced"]
        final = {
            pid: _call(service, cmd="status", pid=pid)["outcome"]
            for pid in told
        }
        assert told == final
        assert _call(service, cmd="check")["conserved"]
    finally:
        service.stop()


def _catch_in_gap(
    service, pids, deadline_s=60, held=False
) -> tuple[int, dict]:
    """Poll ``status`` until some pid is awaiting its resubmission
    (``held``: at the restart gate, past the resubmit delay)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for pid in pids:
            status = _call(service, cmd="status", pid=pid)
            if status["state"] == "awaiting-resubmit" and (
                "behind" in status or not held
            ):
                return pid, status
    pytest.fail("no pid was ever seen awaiting its resubmission")


def test_gap_is_a_state_and_cancel_reaches_it():
    # One virtual unit of resubmit delay = 1 s of wall: a wide gap.
    service = _service(time_scale=1.0, tick=0.005)
    try:
        pids = _call(service, cmd="submit", count=16)["pids"]
        pid, status = _catch_in_gap(service, pids)
        assert status == {
            "pid": pid,
            "state": "awaiting-resubmit",
            "incarnation": status["incarnation"],
        }
        assert status["incarnation"] >= 1
        # Live for backlog shedding and for drain's verdict.
        assert _call(service, cmd="stats")["service"]["backlog"] >= 1
        assert _call(service, cmd="cancel", pid=pid) == {
            "pid": pid,
            "cancelled": True,
        }
        status = _call(service, cmd="status", pid=pid)
        assert (status["state"], status["outcome"]) == ("done", "cancelled")
        drained = _call(service, cmd="drain")
        assert drained["quiesced"]
        assert _call(service, cmd="status", pid=pid)["outcome"] == "cancelled"
        assert _call(service, cmd="check")["conserved"]
    finally:
        service.stop()


def _metric_values(service, name) -> dict:
    """``labels -> value`` of one family of the ``metrics`` verb."""
    families = _call(service, cmd="metrics")["metrics"]["families"]
    (family,) = [f for f in families if f["name"] == name]
    return {
        tuple(sorted(sample["labels"].items())): sample["value"]
        for sample in family["samples"]
    }


def test_a_held_pid_is_live_and_says_what_it_waits_behind():
    """Past the gap a victim may be held at the restart gate: still
    ``awaiting-resubmit`` to everyone who asks, and ``status`` names
    the older pids it waits behind."""
    service = _service(time_scale=4.0, tick=0.005)
    try:
        waiting = service.execute({"cmd": "submit", "count": 16, "wait": True})
        pid, status = _catch_in_gap(service, range(1, 17), held=True)
        assert status == {
            "pid": pid,
            "state": "awaiting-resubmit",
            "incarnation": status["incarnation"],
            "behind": status["behind"],
        }
        assert all(0 < older < pid for older in status["behind"])
        assert not waiting.done()
        assert _call(service, cmd="stats")["service"]["backlog"] >= 1
        assert _metric_values(service, "repro_processes_held")[()] >= 1
        assert _call(service, cmd="cancel", pid=pid)["cancelled"]
        after = _call(service, cmd="status", pid=pid)
        assert (after["state"], after["outcome"]) == ("done", "cancelled")
        assert _call(service, cmd="drain")["quiesced"]
        rows = waiting.result(timeout=120)["outcomes"]
        assert {row["outcome"] for row in rows} <= set(OUTCOMES)
        assert _metric_values(service, "repro_processes_held")[()] == 0
        # A victim counts once, and both verbs say the same.
        stats = _call(service, cmd="stats")["manager"]
        begun = _metric_values(service, "repro_process_aborts_total")
        cascade = begun[(("cause", "cascade"),)]
        assert stats["protocol_aborts"] == cascade > 0  # no cycles, no dies
        victims = _metric_values(service, "repro_cascade_victims_total")
        cascades = _metric_values(service, "repro_lock_cascades_total")
        assert victims[()] == cascade
        assert 0 < cascades[()] <= cascade
        assert _call(service, cmd="check")["conserved"]
    finally:
        service.stop()


def test_starvation_is_served_as_an_outcome():
    """At the parent the engine thread was dead within a second and
    both the submit and the ping timed out."""
    service = _service(manager_config=ManagerConfig(max_resubmissions=0))
    try:
        body = _call(service, cmd="submit", count=16, wait=True)
        outcomes = {row["pid"]: row["outcome"] for row in body["outcomes"]}
        assert set(outcomes.values()) <= set(OUTCOMES)
        starved = [p for p, o in outcomes.items() if o == "starved"]
        assert starved
        assert service._thread.is_alive()
        assert _call(service, cmd="ping")["pong"] is True
        status = _call(service, cmd="status", pid=starved[0])
        assert status["outcome"] == "starved"
        assert status["resubmissions"] == 0
        stats = _call(service, cmd="stats")["manager"]
        assert stats["starved"] == len(starved)
        families = {
            family["name"]: family["samples"]
            for family in _call(service, cmd="metrics")["metrics"]["families"]
        }
        counted = {
            sample["labels"]["outcome"]: sample["value"]
            for sample in families["repro_process_outcomes_total"]
        }
        assert counted["starved"] == len(starved)
        assert sum(counted.values()) == 16
        report = _call(service, cmd="check")
        assert report["complete"] and report["correct_termination"]
        assert report["conserved"]
    finally:
        service.stop()


def _explode_on_commit(service) -> None:
    def boom(process):
        raise RuntimeError("callback exploded")

    service.manager._finalize_commit = boom


def _drop_blocker_edges(service) -> None:
    """Corrupt the lock table's blocker index: the next grant behind a
    conflicting holder must be caught by the table's own check."""
    service.manager.protocol.table._add_block_edge = (
        lambda blocker, waiter: None
    )


def _let_a_writer_past_held_locks(service) -> None:
    for subsystem in service.manager.subsystems:
        let_a_writer_past_held_locks(subsystem)


@pytest.mark.parametrize(
    "break_engine, raised, spec",
    [
        (_explode_on_commit, "RuntimeError: callback exploded", CONTENDED),
        (_drop_blocker_edges, "ProtocolError: ", CONTENDED),
        (
            _let_a_writer_past_held_locks,
            "CommitValidationError: ",
            GROUNDED,
        ),
    ],
    ids=["callback", "invariant", "subsystem"],
)
def test_exception_out_of_the_engine_loop_is_answered(
    tmp_path, break_engine, raised, spec
):
    flight = tmp_path / "flight.jsonl"
    service = _service(flight_path=str(flight), spec=spec, **PACED)
    sidecar = MetricsSidecar(service, "127.0.0.1", 0).start()
    health = f"http://127.0.0.1:{sidecar.port}/healthz"
    try:
        assert urllib.request.urlopen(health, timeout=5).status == 200
        # Fired by the engine between requests: no handler is on the
        # stack to turn it into an error response.
        break_engine(service)
        waiting = service.execute({"cmd": "submit", "count": 4, "wait": True})
        with pytest.raises(ServiceError) as caught:
            waiting.result(timeout=30)
        assert caught.value.code == "internal"
        assert raised in caught.value.message
        service._thread.join(timeout=10)
        assert not service._thread.is_alive()
        # Later requests are refused at once, with the same code.
        started = time.monotonic()
        for cmd in ("ping", "submit", "stats"):
            with pytest.raises(ServiceError) as caught:
                service.execute({"cmd": cmd}).result(timeout=5)
            assert caught.value.code == "internal"
        assert time.monotonic() - started < 1.0
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(health, timeout=5)
        assert refused.value.code == 503
        assert json.loads(refused.value.read())["ok"] is False
        assert flight.exists()  # the internal-error flight dump
    finally:
        sidecar.stop()
        service.stop()
