"""One owner for a pid's fate: phases, outcomes, conservation.

The manager is the single writer of a pid's lifecycle.  Undecided, a
pid is in exactly one enumerable phase; decided, its record carries
exactly one of four outcomes.  These tests hold that at every engine
step, across simulated manager crashes, under client cancels and at
the resubmission limit.
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError, StarvationError
from repro.faults import injector as injector_module
from repro.faults.harness import run_chaos
from repro.faults.plan import FaultPlan, ManagerCrash
from repro.scheduler.events import OUTCOMES, conserved
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.scheduler.recovery import crash, recover
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_scheduler.test_restart_gate import held as _held

CRASH_POINTS = (15, 30, 45, 60, 90)


def _contended(seed: int) -> WorkloadSpec:
    return WorkloadSpec(n_processes=12, conflict_density=0.6, seed=seed)


def _fresh(workload, seed, **config):
    manager = make_manager(
        make_protocol("process-locking", workload),
        subsystems=workload.make_subsystems(),
        config=ManagerConfig(**config),
        seed=seed,
    )
    for index, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(index))
    return manager


def _step_checked(manager, limit=None) -> int:
    """Fire events one by one; after each, every pid without an outcome
    is one the manager enumerates — none lives in a closure only."""
    fired = 0
    while (limit is None or fired < limit) and manager.engine.run_steps(1):
        fired += 1
        assert conserved(manager.records, undecided=manager.undecided())
    return fired


# ----------------------------------------------------------------------
# across a manager crash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_crash_sweep_conserves_every_pid(seed, monkeypatch):
    """12 processes, density 0.6, one crash: each seed takes one of
    the five crash points (130-152 of 480 pids were lost at the parent
    of this test over the full seed x point grid; 0 without a crash).
    From the second crash point on, the crash catches pids held at the
    restart gate."""
    at_event = CRASH_POINTS[seed % len(CRASH_POINTS)]
    held_at_crash = []

    def crash_and_look(manager):
        held_at_crash.append(_held(manager))
        return crash(manager)

    monkeypatch.setattr(injector_module, "crash", crash_and_look)
    plan = FaultPlan(
        name="crash", manager_crashes=(ManagerCrash(at_event=at_event),)
    )
    report = run_chaos(
        build_workload(_contended(seed)), "process-locking", plan, seed=seed
    )
    assert report.incarnations == 2
    assert report.ok, report.failures
    assert report.checks["conserved"]
    (held,) = held_at_crash
    assert held or at_event == CRASH_POINTS[0]


@pytest.mark.parametrize(
    "protocol", ("process-locking", "process-locking-basic")
)
def test_crash_after_a_parked_grant_rebuilds_locks_out_of_order(protocol):
    """A lock granted after waiting parked sits *behind* the conflicting
    locks granted meanwhile, although its activity was launched (drew
    its uid) before theirs: recovery must replay the journaled
    positions.  With the restart gate the 12-process sweep above never
    reaches this; 24 staggered processes at density 0.7 do, at seed 48
    (replayed in uid order, 9 of these 20 crash points fail: two wait
    cycles between abort-process executions, seven spliced schedules
    that are not CT)."""
    spec = WorkloadSpec(
        n_processes=24, conflict_density=0.7, arrival_spacing=0.5, seed=48
    )
    for at_event in range(75, 95):
        plan = FaultPlan(
            name="crash",
            manager_crashes=(ManagerCrash(at_event=at_event),),
        )
        report = run_chaos(build_workload(spec), protocol, plan, seed=48)
        assert report.ok, (at_event, report.failures)
        assert all(report.checks.values()), (at_event, report.checks)


@pytest.mark.parametrize("seed,at_event", [(0, 15), (7, 45), (21, 90)])
def test_every_undecided_pid_is_enumerated_at_every_step(seed, at_event):
    workload = build_workload(_contended(seed))
    manager = _fresh(workload, seed)
    _step_checked(manager, limit=at_event)
    image = crash(manager)
    before = manager.undecided()
    assert {"pending", "awaiting-resubmit", "aborting"} & set(
        before.values()
    )
    # The two later points are taken while pids are held at the
    # restart gate: enumerated like any other awaiting-resubmit pid.
    held = _held(manager)
    assert bool(held) == (at_event > 15)
    assert all(before[pid] == "awaiting-resubmit" for pid in held)
    recovered = recover(
        image,
        make_protocol("process-locking", workload),
        subsystems=workload.make_subsystems(),
        seed=seed + 1,
    )
    # The recovered manager enumerates the same pids in the same
    # phases — nothing was finalized or dropped by the crash.
    assert recovered.undecided() == before
    _step_checked(recovered)
    result = recovered.run()
    assert not recovered.undecided()
    assert {r.outcome for r in result.records.values()} <= set(OUTCOMES)
    assert conserved(result.records)


def test_cascade_victim_keeps_its_timestamp_across_a_crash():
    """The paper's starvation argument needs the *original* timestamp:
    a victim caught mid-abort or in the resubmission gap comes back
    under it instead of ending ``aborted``."""
    workload = build_workload(_contended(3))
    manager = _fresh(workload, 3)
    while not {"aborting", "awaiting-resubmit"} <= set(
        manager.undecided().values()
    ):
        assert manager.engine.run_steps(1)
    image = crash(manager)
    victims = {
        snapshot.pid: snapshot.timestamp
        for snapshot in image.snapshots
        if snapshot.abort_then == "resubmit"
        or snapshot.resubmit_in is not None
    }
    assert len(victims) >= 2
    recovered = recover(
        image,
        make_protocol("process-locking", workload),
        subsystems=workload.make_subsystems(),
    )
    while victims:
        assert recovered.engine.run_steps(1)
        for pid in [
            pid
            for pid in victims
            if recovered.phase(pid) not in ("aborting", "awaiting-resubmit")
        ]:
            # Restarted, not finalized: a live incarnation, same timestamp.
            assert recovered.outcome(pid) is None
            assert recovered.process(pid).timestamp == victims.pop(pid)
    recovered.run()


# ----------------------------------------------------------------------
# the resubmission gap, cancels
# ----------------------------------------------------------------------
def _run_until(manager, phase) -> int:
    """Step until some pid is in ``phase``; returns that pid."""
    while True:
        for pid, current in manager.undecided().items():
            if current == phase:
                return pid
        assert manager.engine.run_steps(1), f"never saw {phase!r}"


def test_cancel_in_the_gap_drops_the_resubmission():
    workload = build_workload(_contended(3))
    manager = _fresh(workload, 3)
    pid = _run_until(manager, "awaiting-resubmit")
    successor = manager.process(pid)
    assert successor.incarnation == manager.records[pid].resubmissions + 1
    assert manager.cancel(pid)
    assert manager.phase(pid) is None
    assert manager.outcome(pid) == "cancelled"
    assert not manager.cancel(pid)  # decided: nothing left to cancel
    result = manager.run()
    assert result.records[pid].outcome == "cancelled"
    assert result.stats.cancellations == 1


def test_cancel_of_an_aborting_victim_ends_it_cancelled():
    workload = build_workload(_contended(3))
    manager = _fresh(workload, 3)
    pid = None
    while pid is None:
        assert manager.engine.run_steps(1)
        # An intrinsic abort already ends its pid: cancel says False.
        pid = next(
            (
                candidate
                for candidate, phase in manager.undecided().items()
                if phase == "aborting" and manager.cancel(candidate)
            ),
            None,
        )
    assert manager.phase(pid) == "aborting"  # compensations run on
    assert not manager.cancel(pid)  # its abort ends the pid already
    result = manager.run()
    assert result.records[pid].outcome == "cancelled"
    assert result.stats.cancellations == 1
    schedule = result.trace.to_schedule(workload.conflicts.conflict)
    assert schedule.is_complete


def test_take_finished_hands_each_decided_pid_out_once():
    workload = build_workload(_contended(5))
    manager = _fresh(workload, 5)
    seen: list[int] = []
    while manager.engine.run_steps(7):
        batch = manager.take_finished()
        assert all(manager.outcome(pid) for pid in batch)
        seen += batch
    assert manager.take_finished() == []
    assert sorted(seen) == sorted(manager.records)


# ----------------------------------------------------------------------
# one submit path
# ----------------------------------------------------------------------
def test_submit_under_a_known_pid_keeps_its_record():
    workload = build_workload(_contended(1))
    manager = make_manager(make_protocol("process-locking", workload))
    program = workload.programs[0]
    first = manager.submit(program, at=5.0)
    with pytest.raises(SchedulerError, match="pending"):
        manager.submit(program, pid=first)
    manager.run()
    with pytest.raises(SchedulerError, match=manager.outcome(first)):
        manager.submit(program, pid=first)
    # A pid the manager has never seen (a journaled submission).
    assert manager.submit(program, pid=40) == 40
    assert manager.phase(40) == "pending"
    manager.run()
    assert manager.outcome(40) in OUTCOMES


# ----------------------------------------------------------------------
# the resubmission limit
# ----------------------------------------------------------------------
def test_starvation_is_an_outcome_reported_after_the_drain():
    workload = build_workload(_contended(3))
    manager = _fresh(workload, 3, max_resubmissions=0)
    with pytest.raises(StarvationError) as caught:
        manager.run()
    # The engine drained first: everyone else finished normally.
    assert not manager.undecided()
    assert manager.engine.pending == 0
    assert conserved(manager.records, manager.stats)
    starved = [
        pid
        for pid, record in manager.records.items()
        if record.outcome == "starved"
    ]
    assert starved and manager.stats.starved == len(starved)
    assert str(starved) in str(caught.value)  # it names them
    for pid in starved:
        assert manager.records[pid].resubmissions == 0
    assert manager.stats.committed > 0
    # Compensated and detached: the schedule is complete and correct.
    schedule = manager.trace.to_schedule(workload.conflicts.conflict)
    assert schedule.is_complete
    # Not a liveness failure when the caller does not ask for one.
    again = _fresh(workload, 3, max_resubmissions=0)
    assert again.run(require_quiescence=False).stats.starved == len(starved)
