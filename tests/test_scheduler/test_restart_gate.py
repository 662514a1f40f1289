"""The restart gate: a cascade victim's successor waits out the older
processes that would wound it again (``ProcessManager._start``).

A successor is not restarted while an older undecided process may
still request a type conflicting with its root node; held, it owns
nothing and blocks nobody, and it waits on strictly older timestamps
only.  These tests hold the price (attempts per commit on the
contended burst), the invariants of a hold at every engine step, what
``cancel`` does to it, and that a victim is counted once.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.protocol import ProcessLockManager
from repro.obs import Tracer
from repro.obs.metrics import MetricsTracer
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_scheduler.test_schedule_golden import POINTS
from tests.test_storage.test_journal_golden import CONTENDED

#: The catalog of ``bench/workloads.py``'s ``burst_contended``.
BURST = CONTENDED


def _manager(workload, protocol="process-locking", seed=3, tracer=None):
    return make_manager(
        make_protocol(protocol, workload),
        subsystems=workload.make_subsystems(),
        config=ManagerConfig(),
        seed=seed,
        tracer=tracer,
    )


def run_bursts(manager, workload, bursts=12, seed=3) -> None:
    """What a ``burst_contended`` round sends: every catalog program
    once per burst from a seeded start, drained between bursts."""
    order = [index % 16 for index in range(bursts)]
    random.Random(f"burst_contended/{seed}/0").shuffle(order)
    for first in order:
        for k in range(16):
            manager.submit(workload.programs[(first + k) % 16], at=0.0)
        manager.engine.run()


def held(manager) -> dict[int, list[int]]:
    return {
        pid: behind
        for pid in manager.undecided()
        if (behind := manager.held_behind(pid))
    }


# ----------------------------------------------------------------------
# the price of contention
# ----------------------------------------------------------------------
def test_contended_bursts_cost_at_most_three_attempts_per_commit():
    """27.2 at the parent of this test: a victim restarted after a flat
    delay, into the older process that had just wounded it."""
    workload = build_workload(BURST)
    manager = _manager(workload)
    run_bursts(manager, workload)
    stats = manager.stats
    assert not manager.undecided()
    assert stats.submitted == 192 and stats.committed > 140
    assert (stats.submitted + stats.resubmissions) / stats.committed <= 3
    assert max(r.resubmissions for r in manager.records.values()) <= 25
    assert stats.starved == 0
    assert stats.deadlock_victims == 0


# ----------------------------------------------------------------------
# a hold, at every engine step
# ----------------------------------------------------------------------
SPEC_STRATEGY = st.builds(
    WorkloadSpec,
    n_processes=st.integers(min_value=4, max_value=14),
    n_activity_types=st.integers(min_value=6, max_value=12),
    conflict_density=st.floats(min_value=0.3, max_value=0.9),
    failure_probability=st.floats(min_value=0.0, max_value=0.15),
    parallel_probability=st.sampled_from([0.0, 0.4]),
    alternative_count=st.integers(min_value=1, max_value=2),
    arrival_spacing=st.sampled_from([0.0, 0.5]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _assert_holds_are_clean(manager) -> int:
    """A held pid owns no lock and no parked request, has no process
    attached, and waits behind older undecided timestamps only."""
    holds = held(manager)
    undecided = manager.undecided()
    parked = {request.process.pid for request in manager.parking}
    for pid, behind in holds.items():
        assert undecided[pid] == "awaiting-resubmit"
        assert not manager.protocol.table.locks_of(pid)
        assert pid not in parked
        assert pid not in manager.protocol.timestamps()
        timestamp = manager.process(pid).timestamp
        for older in behind:
            assert older in undecided
            assert manager.process(older).timestamp < timestamp
    return len(holds)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=SPEC_STRATEGY,
    protocol=st.sampled_from(
        ["process-locking", "process-locking-basic", "s2pl", "osl-pure"]
    ),
)
def test_property_held_pids_own_nothing_and_wait_on_older_only(
    spec, protocol
):
    workload = build_workload(spec)
    manager = _manager(workload, protocol, seed=spec.seed)
    for index, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(index))
    while manager.engine.run_steps(1):
        _assert_holds_are_clean(manager)
    # The engine drained on its own — no timer kept a hold alive, no
    # hold outlived the processes it waited behind.
    assert not held(manager)
    assert not manager.undecided()


def test_the_property_above_sees_holds():
    """Its workloads do reach the gate (a vacuous pass is a failure)."""
    workload = build_workload(BURST)
    manager = _manager(workload)
    for program in workload.programs:
        manager.submit(program)
    seen = 0
    while manager.engine.run_steps(1):
        seen = max(seen, _assert_holds_are_clean(manager))
    assert seen >= 2


# ----------------------------------------------------------------------
# cancel
# ----------------------------------------------------------------------
@pytest.fixture
def world():
    """An older three-step process and a younger one whose first step
    conflicts with the older one's last, caught with the younger held."""
    registry = ActivityRegistry()
    for name in ("reserve", "ship", "bill"):
        registry.define_compensatable(
            name, "shop", cost=2.0, compensation_cost=1.0
        )
    conflicts = ConflictMatrix(registry)
    conflicts.declare_conflict("bill", "bill")
    conflicts.close_perfect()
    manager = make_manager(
        ProcessLockManager(registry, conflicts, cost_based=False),
        config=ManagerConfig(),
    )
    first = manager.submit(
        ProgramBuilder("older", registry)
        .sequence("reserve", "ship", "bill")
        .build()
    )
    second = manager.submit(
        ProgramBuilder("younger", registry).sequence("bill", "ship").build()
    )
    # The younger process takes ``bill`` first; the older one's request
    # for it wounds the younger, whose successor is then held.
    while not manager.held_behind(second):
        assert manager.engine.run_steps(1)
    assert manager.held_behind(second) == [first]
    return manager, first, second


def test_cancel_of_a_held_pid_ends_it_at_once(world):
    manager, first, second = world
    assert manager.phase(second) == "awaiting-resubmit"
    assert manager.cancel(second)
    assert manager.outcome(second) == "cancelled"
    assert manager.phase(second) is None
    assert not manager.held_behind(second)
    result = manager.run()
    assert result.records[first].outcome == "committed"
    assert result.records[second].outcome == "cancelled"


def test_cancel_of_what_it_waits_behind_releases_it_in_the_same_drain(
    world,
):
    manager, first, second = world
    assert manager.cancel(first)  # running: aborted, then ``cancelled``
    manager.engine.run()  # one drain, no further command
    assert manager.outcome(first) == "cancelled"
    assert manager.outcome(second) == "committed"
    assert manager.records[second].resubmissions == 1


def test_a_hold_has_no_timer_and_ends_when_the_older_pid_is_decided(world):
    manager, first, second = world
    assert manager.phase(first) == "running"
    assert not manager.held_behind(first)  # the oldest never waits
    # All the engine holds is the older pid's last activity: an eager
    # run has nothing to spin on and no restart time to jump to.
    assert manager.engine.pending == 1
    fired_before = manager.engine.events_processed
    result = manager.run()
    # reserve, ship | 4: wounded | bill^-1 5 | bill 7: commit, release |
    # bill, ship 11: the successor ran once, straight through.
    assert result.makespan == 11.0
    assert manager.engine.events_processed - fired_before == 3
    assert result.records[second].outcome == "committed"
    assert result.records[second].resubmissions == 1
    assert result.stats.resubmissions == 1


# ----------------------------------------------------------------------
# a victim counts once
# ----------------------------------------------------------------------
def _traced_run(spec, protocol):
    workload = build_workload(spec)
    tracer = MetricsTracer(sinks=(Tracer(),))
    manager = _manager(workload, protocol, seed=spec.seed, tracer=tracer)
    for index, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(index))
    return manager, manager.run(), tracer


def _assert_victims_counted_once(manager, tracer) -> None:
    (sink,) = tracer.sinks
    begun = [
        record
        for record in sink.records()
        if record["kind"] == "process.abort-begin"
    ]
    cascade = sum(record["cause"] == "cascade" for record in begun)
    assert manager.stats.cascade_victims == cascade > 0
    assert 0 < manager.stats.cascades.total() <= cascade
    assert manager.stats.protocol_aborts == sum(
        record["cause"] in ("cascade", "deadlock", "self")
        for record in begun
    )


@pytest.mark.parametrize("name", ["pl-40", "pl-60-seed3", "s2pl-40", "osl-40"])
def test_cascade_victims_are_counted_where_their_abort_begins(name):
    """3,776 victims and 2,024 cascades against 2,134 aborts begun on
    ``pl-40`` at the parent: a re-asked rule named the rest again."""
    spec, protocol, *_ = POINTS[name]
    manager, _, tracer = _traced_run(spec, protocol)
    _assert_victims_counted_once(manager, tracer)


def test_cascade_victims_are_counted_once_on_the_burst_shape():
    workload = build_workload(BURST)
    tracer = MetricsTracer(sinks=(Tracer(),))
    manager = _manager(workload, tracer=tracer)
    run_bursts(manager, workload, bursts=3)
    _assert_victims_counted_once(manager, tracer)
