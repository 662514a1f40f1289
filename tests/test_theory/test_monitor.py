"""The carried verdict against the per-prefix and pairwise oracles.

:class:`~repro.theory.criteria.ScheduleMonitor` decides P-RED and P-RC
in one forgetting sweep, fed two ways: batch over a
:class:`~repro.theory.schedule.ProcessSchedule` (``ScheduleMonitor.of``,
behind the criteria functions) and carried by a
:class:`~repro.scheduler.trace.TraceRecorder` as it records — re-fed
the seeded events after an in-memory crash, or streamed the stored
prefix when a store is opened.  Both must give the oracles' answers of
``tests/test_theory/oracles.py``: the same first bad prefix, and the
same violations in the same order, on

* the random schedules of ``test_sweeps.py``, fed one event at a time
  and checked after every event (the carried verdict is every
  prefix's);
* random bursts under all six protocols, with a finite ``Wcc*``;
* spliced post-crash schedules: an in-memory manager crash, and a
  durable manager stopped at a snapshot and recovered from its store.

A complete protocol schedule that is P-RED leaves the monitor holding
nothing: every process was forgotten.
"""

from __future__ import annotations

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivityFailures,
    FaultPlan,
    ManagerCrash,
    compile_plan,
)
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.sim.runner import PROTOCOL_FACTORIES, make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.storage import PersistencePlane, Store
from repro.theory.criteria import ScheduleMonitor
from repro.theory.schedule import ConflictRows
from tests.test_storage.stored import stored_schedule
from tests.test_theory.oracles import (
    pairwise_prc_violations,
    per_prefix_first_bad,
)
from tests.test_theory.test_sweeps import SWEEP, drawn_schedule

#: Simulated schedules are larger than the drawn ones and the oracles
#: are O(n³) or worse: a fifth of the profile's examples (20 in
#: tier-1, 400 in CI's ``smoke``).
RUNS = settings(
    deadline=None, max_examples=max(20, settings().max_examples // 5)
)


def positions(violations) -> list[tuple[int, int]]:
    return [(v.earlier.position, v.later.position) for v in violations]


def assert_oracles_agree(monitor: ScheduleMonitor, schedule) -> None:
    """``monitor`` (fed ``schedule``) answers what the oracles do; the
    batch driver too."""
    expected = (
        per_prefix_first_bad(schedule),
        pairwise_prc_violations(schedule),
        schedule.is_complete,
    )
    for answer in (monitor, ScheduleMonitor.of(schedule)):
        assert (
            answer.first_bad,
            positions(answer.violations),
            answer.complete,
        ) == expected


def assert_forgot_everything(monitor: ScheduleMonitor) -> None:
    """A complete schedule leaves no state behind; a P-RED one no
    reduction either."""
    assert monitor.complete
    assert not any(monitor._open_by_type.values())
    assert not (monitor._open_by_process or monitor._as_reader)
    assert not monitor._as_writer
    reduction = monitor.reduction
    if reduction is not None:
        assert not (reduction.survivors or reduction.out or reduction.held)
        assert not (reduction.indegree or reduction.stuck)


@SWEEP
@given(data=st.data())
def test_fed_one_event_at_a_time_the_verdict_is_every_prefix_s(data):
    schedule = drawn_schedule(data, length=16)
    bad = per_prefix_first_bad(schedule)
    monitor = ScheduleMonitor(ConflictRows(schedule.conflict))
    for cut, event in enumerate(schedule.events, start=1):
        monitor.feed(event)
        prefix = schedule.prefix(cut)
        assert monitor.first_bad == (
            bad if bad is not None and bad <= cut else None
        )
        assert positions(monitor.violations) == pairwise_prc_violations(
            prefix
        )
        assert monitor.complete == prefix.is_complete
    assert_oracles_agree(monitor, schedule)


def _spec(seed, n_processes, density, threshold) -> WorkloadSpec:
    return WorkloadSpec(
        n_processes=n_processes,
        n_activity_types=8,
        conflict_density=density,
        failure_probability=0.08,
        parallel_probability=0.3,
        wcc_threshold=threshold,
        seed=seed,
    )


@example("process-locking", 0, 8, 0.9, 4.0)
@example("osl-pure", 3, 8, 0.6, 20.0)
@RUNS
@given(
    protocol=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    seed=st.integers(0, 2**16),
    n_processes=st.integers(2, 8),
    density=st.sampled_from((0.3, 0.6, 0.9)),
    threshold=st.sampled_from((4.0, 20.0)),
)
def test_the_recorders_verdict_on_random_bursts(
    protocol, seed, n_processes, density, threshold
):
    """Two bursts of the whole catalog, the second submitted while the
    first runs."""
    workload = build_workload(_spec(seed, n_processes, density, threshold))
    manager = make_manager(
        make_protocol(protocol, workload),
        subsystems=workload.make_subsystems(),
        seed=seed,
    )
    engine = manager.engine
    rng = random.Random(seed)
    for _ in range(2):
        for program in workload.programs:
            manager.submit(program)
        engine.run_due(engine.now + rng.uniform(0.5, 3.0))
    engine.run()
    verdict = manager.trace.verdict
    assert_oracles_agree(
        verdict, manager.trace.to_schedule(workload.conflicts.conflict)
    )
    assert_forgot_everything(verdict)


@example("process-locking", 4, 10, 30)
@RUNS
@given(
    protocol=st.sampled_from(
        ("process-locking", "process-locking-basic", "s2pl")
    ),
    seed=st.integers(0, 2**16),
    n_processes=st.integers(4, 10),
    at_event=st.integers(5, 60),
)
def test_the_verdict_carried_across_an_in_memory_crash(
    protocol, seed, n_processes, at_event
):
    """The recovered recorder is re-fed the crash image's events."""
    workload = build_workload(_spec(seed, n_processes, 0.6, math.inf))
    plan = FaultPlan(
        name="monitor-crash",
        failures=ActivityFailures(rate_scale=2.0),
        manager_crashes=(ManagerCrash(at_event=at_event),),
    )
    chaos = FaultInjector(
        workload, protocol, compile_plan(plan, seed), seed=seed
    ).run()
    trace = chaos.result.trace
    assert_oracles_agree(
        trace.verdict, trace.to_schedule(workload.conflicts.conflict)
    )
    assert_forgot_everything(trace.verdict)


@example(5, 12, 10)
@RUNS
@given(
    seed=st.integers(0, 2**16),
    n_processes=st.integers(4, 10),
    steps=st.integers(0, 80),
)
def test_the_verdict_streamed_from_a_store(
    tmp_path_factory, seed, n_processes, steps
):
    """Stopped at a snapshot after ``steps`` engine steps, recovered:
    the plane streams the stored prefix through the new recorder's
    verdict before anything is recorded past it."""
    workload = build_workload(
        _spec(seed, n_processes, 0.6, math.inf).with_(grounded=True)
    )
    path = str(tmp_path_factory.mktemp("store"))

    def plane_and_manager():
        store = Store.open("log", path)
        plane = PersistencePlane(store, workload.programs, snapshot_every=4)
        protocol = make_protocol("process-locking", workload)
        config = ManagerConfig(store=store)
        if plane.has_state():
            manager, _ = plane.recover(
                protocol,
                config=config,
                subsystems=workload.make_subsystems(),
                seed=seed,
            )
        else:
            manager = make_manager(
                protocol,
                subsystems=workload.make_subsystems(),
                config=config,
                seed=seed,
            )
        return store, plane, manager

    store, plane, manager = plane_and_manager()
    for index, program in enumerate(workload.programs):
        plane.note_submit(manager.submit(program), index)
    manager.engine.run_steps(steps)
    plane.after_drain(manager)
    plane.snapshot(manager)
    store.close()
    store, plane, manager = plane_and_manager()
    try:
        manager.run()
        plane.after_drain(manager)
        plane.final(manager)
        schedule = stored_schedule(
            store,
            workload.programs,
            manager.trace,
            workload.conflicts.conflict,
        )
        assert_oracles_agree(manager.trace.verdict, schedule)
        assert_forgot_everything(manager.trace.verdict)
    finally:
        store.close()
