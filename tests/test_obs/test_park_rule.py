"""The park rule against the manager's own parks.

No event marks a park's end: a park is its ``lock.defer`` or
``lock.cascade``, and :class:`~repro.obs.events.ParkTracker` reads its
end off the events that follow.  :class:`ParkRecorder` wraps the
``park`` and ``unpark`` of one manager's
:class:`~repro.scheduler.parking.ParkingLot` (instance attributes, no
hook in ``src/``; a wake-up drain unparks there too) and records the
parks as they really were; the intervals the tracker derives from the
emitted records must equal them as a multiset,
on random bursts under every protocol, with client cancels, a finite
``Wcc*``, pure OSL forcing its way through unresolvable cycles, failing
parallel siblings and a manager crash.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.cli import main
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivityFailures,
    FaultPlan,
    ManagerCrash,
    compile_plan,
)
from repro.obs import Tracer
from repro.obs.events import ParkTracker
from repro.obs.export import record_to_event
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ProcessManager, make_manager
from repro.sim.runner import PROTOCOL_FACTORIES, make_protocol
from repro.sim.workload import WorkloadSpec, build_workload


class ParkRecorder:
    """Record every park of one manager as ``(pid, request, uid, start,
    end, wait_for, reason, shard)``; ``end`` is ``None`` while it is
    parked.  Times are the stamps the manager's fold gives the events:
    its engine's clock plus the fold's crash offset."""

    def __init__(self, manager: ProcessManager) -> None:
        self.intervals: list[tuple] = []
        self._open: dict[int, tuple] = {}
        lot = manager.parking
        park, unpark = lot.park, lot.unpark
        fold, engine = manager.tracer, manager.engine

        def now() -> float:
            return engine.now + fold.offset

        def recorded_park(request) -> None:
            park(request)
            activity = request.activity
            self._open[request.seq] = (
                request.process.pid,
                request.kind.value,
                activity.uid if activity else None,
                now(),
                tuple(sorted(request.wait_for)),
                request.reason,
                activity.activity_type.subsystem if activity else None,
            )

        def recorded_unpark(request) -> None:
            opened = self._open.pop(request.seq)
            unpark(request)
            self._close(opened, now())

        lot.park = recorded_park
        lot.unpark = recorded_unpark

    def _close(self, opened: tuple, end: float | None) -> None:
        pid, request, uid, start, wait_for, reason, shard = opened
        self.intervals.append(
            (pid, request, uid, start, end, wait_for, reason, shard)
        )

    def close_all(self, end: float | None) -> None:
        """End the parks still open (``end`` is the crash, or ``None``
        for a run left undrained)."""
        for opened in self._open.values():
            self._close(opened, end)
        self._open.clear()


def derived_intervals(records: list[dict]) -> list[tuple]:
    """The parks the rule reads off ``records``, in the same shape."""
    parks = []
    tracker = ParkTracker(lambda park, event: None)
    for record in records:
        if record["kind"] in ParkTracker.KINDS:
            park = tracker.observe(record["t"], record_to_event(record))
            if park is not None:
                parks.append(park)
    return [
        (
            park.pid, park.request, park.uid, park.start, park.end,
            park.wait_for, park.reason, park.shard,
        )
        for park in parks
    ]


def assert_rule_holds(recorded: list[tuple], records: list[dict]) -> None:
    real, derived = Counter(recorded), Counter(derived_intervals(records))
    assert real == derived, (
        f"only real: {list((real - derived).items())[:3]}; "
        f"only derived: {list((derived - real).items())[:3]}"
    )


def run_bursts(
    protocol: str,
    seed: int,
    n_processes: int,
    density: float,
    threshold: float,
    cancel_every: int,
    bursts: int = 2,
) -> tuple[ParkRecorder, list[dict]]:
    """``bursts`` submissions of the whole catalog, each run partway,
    every ``cancel_every``-th pid of it cancelled (0: none), then run to
    quiescence."""
    spec = WorkloadSpec(
        n_processes=n_processes,
        n_activity_types=10,
        conflict_density=density,
        failure_probability=0.05,
        parallel_probability=0.3,
        wcc_threshold=threshold,
        seed=seed,
    )
    workload = build_workload(spec)
    tracer = Tracer()
    manager = make_manager(
        make_protocol(protocol, workload),
        subsystems=workload.make_subsystems(),
        seed=seed,
        tracer=tracer,
    )
    recorder = ParkRecorder(manager)
    engine = manager.engine
    rng = random.Random(seed)
    for _ in range(bursts):
        pids = [manager.submit(program) for program in workload.programs]
        engine.run_due(engine.now + rng.uniform(0.5, 3.0))
        if cancel_every:
            for pid in pids[::cancel_every]:
                manager.cancel(pid)
        engine.run()
    recorder.close_all(None)
    return recorder, tracer.records()


#: Pure OSL forcing its way through unresolvable cycles.
FORCED = ("osl-pure", 3, 12, 0.6, math.inf, 0)
#: Client cancels of running processes (one in three).
CANCELLED = ("process-locking", 11, 12, 0.6, math.inf, 3)
#: A finite ``Wcc*``: pseudo pivots, so deadlock victims.
THRESHOLD = ("process-locking", 0, 14, 0.9, 4.0, 0)


@example(*FORCED)
@example(*CANCELLED)
@example(*THRESHOLD)
@settings(deadline=None)
@given(
    protocol=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    seed=st.integers(0, 2**16),
    n_processes=st.integers(2, 12),
    density=st.sampled_from((0.3, 0.6, 0.9)),
    threshold=st.sampled_from((math.inf, 4.0, 20.0)),
    cancel_every=st.sampled_from((0, 2, 3)),
)
def test_the_rule_reads_every_park_off_the_decisions(
    protocol, seed, n_processes, density, threshold, cancel_every
):
    recorder, records = run_bursts(
        protocol, seed, n_processes, density, threshold, cancel_every
    )
    assert_rule_holds(recorder.intervals, records)


@pytest.mark.parametrize(
    ("case", "kind"),
    [
        (FORCED, "deadlock.forced"),
        (CANCELLED, "process.cancel"),
        (THRESHOLD, "deadlock.victim"),
    ],
    ids=["forced", "cancelled", "threshold"],
)
def test_the_pinned_examples_reach_what_they_pin(case, kind):
    recorder, records = run_bursts(*case)
    assert any(record["kind"] == kind for record in records)
    assert recorder.intervals


def test_a_manager_crash_ends_the_crashed_managers_parks(monkeypatch):
    """Every incarnation's manager is recorded; the parks the crash
    leaves open end at its ``fault.inject``."""
    recorders: list[ParkRecorder] = []
    tracer = Tracer()
    init = ProcessManager.__init__

    def recorded_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        recorders.append(ParkRecorder(self))

    monkeypatch.setattr(ProcessManager, "__init__", recorded_init)
    plan = FaultPlan(
        name="park-crash",
        failures=ActivityFailures(rate_scale=3.0),
        manager_crashes=(ManagerCrash(at_event=30),),
    )
    spec = WorkloadSpec(n_processes=12, conflict_density=0.6, seed=4)
    chaos = FaultInjector(
        build_workload(spec),
        "process-locking",
        compile_plan(plan, 4),
        seed=4,
        tracer=tracer,
    ).run()
    records = tracer.records()
    (crash,) = [
        record["t"]
        for record in records
        if record["kind"] == "fault.inject"
        and record["channel"] == "manager-crash"
    ]
    assert chaos.incarnations == len(recorders) == 2
    crashed, recovered = recorders
    assert crashed._open, "the crash must catch a parked request"
    crashed.close_all(crash)
    recovered.close_all(None)
    assert_rule_holds(crashed.intervals + recovered.intervals, records)


def test_a_failed_sibling_ends_the_parked_ones():
    """A parallel node of three under strict 2PL: ``blocked`` parks
    behind P1's ``hold``, ``fails`` fails while ``slow`` still runs.
    The parked sibling is abandoned at the failure, not at the abort
    that begins when ``slow`` is done."""
    registry = ActivityRegistry()
    registry.define_compensatable("hold", "s0", cost=10.0)
    registry.define_compensatable("blocked", "s0", cost=1.0)
    registry.define_compensatable(
        "fails", "s1", cost=1.0, failure_probability=0.999
    )
    registry.define_compensatable("slow", "s1", cost=5.0)
    conflicts = ConflictMatrix(registry)
    conflicts.declare_conflict("hold", "blocked")
    conflicts.close_perfect()
    tracer = Tracer()
    manager = make_manager(
        PROTOCOL_FACTORIES["s2pl"](registry, conflicts),
        seed=1,
        tracer=tracer,
    )
    recorder = ParkRecorder(manager)
    manager.submit(ProgramBuilder("p1", registry).step("hold").build())
    manager.submit(
        ProgramBuilder("p2", registry)
        .parallel("fails", "slow", "blocked")
        .build(),
        at=0.1,
    )
    manager.run(require_quiescence=False)
    records = tracer.records()
    (failed,) = [r["t"] for r in records if r["kind"] == "activity.fail"]
    (aborted,) = [
        r["t"] for r in records if r["kind"] == "process.abort-begin"
    ]
    assert failed < aborted
    (park,) = recorder.intervals
    assert park[2] is not None and park[4] == failed
    assert_rule_holds(recorder.intervals, records)


def test_a_park_is_one_event(tmp_path, capsys):
    """``repro run --seed 7 --processes 150`` emits 13,589 events.  With
    a wait-edge insert and delete beside each park's decision it emitted
    20,531."""
    out = tmp_path / "trace"
    assert main(
        ["run", "--seed", "7", "--processes", "150", "--trace-out", str(out)]
    ) == 0
    capsys.readouterr()
    events = (out / "events.jsonl").read_text().count("\n")
    assert events <= 14_000
