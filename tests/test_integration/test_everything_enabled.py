"""The kitchen-sink properties: every feature enabled at once.

These are the highest-level confidence tests in the suite: grounded
subsystems, cost thresholds, parallel nodes, alternatives, failures,
arrivals, and a mid-run manager crash — simultaneously — must still
yield complete, CT + P-RC schedules with consistent subsystems.  A
second property cross-validates the polynomial reducibility decider
against the exact Definition-4 search on *protocol-generated* prefixes
(the synthetic cross-validation lives in ``tests/test_theory``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scheduler.manager import ProcessManager
from repro.scheduler.recovery import crash, recover
from repro.sim.arrivals import poisson_arrivals
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)
from repro.theory.reduction import poly_is_reducible
from tests.test_subsystems.oracles import (
    avoids_cascading_aborts,
    is_serializable,
    record_pool,
)
from tests.test_theory.oracles import exact_is_reducible


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=500),
    crash_steps=st.integers(min_value=5, max_value=80),
    threshold=st.sampled_from([15.0, 40.0]),
)
def test_property_kitchen_sink(seed, crash_steps, threshold):
    workload = build_workload(
        WorkloadSpec(
            n_processes=5,
            n_activity_types=10,
            conflict_density=0.5,
            failure_probability=0.1,
            parallel_probability=0.3,
            alternative_count=2,
            wcc_threshold=threshold,
            grounded=True,
            seed=seed,
        )
    )
    pool = workload.make_subsystems()
    recorders = record_pool(pool)
    manager = ProcessManager(
        make_protocol("process-locking", workload),
        subsystems=pool,
        seed=seed,
    )
    arrivals = poisson_arrivals(0.3, len(workload.programs), seed=seed)
    for index, program in enumerate(workload.programs):
        manager.submit(program, at=arrivals[index])
    manager.engine.run_steps(crash_steps)
    image = crash(manager)
    recovered = recover(
        image,
        make_protocol("process-locking", workload),
        subsystems=pool,
        seed=seed,
    )
    result = recovered.run()
    schedule = result.trace.to_schedule(workload.conflicts.conflict)
    assert schedule.is_complete
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)
    for subsystem in pool:
        assert subsystem.counters.validated == subsystem.committed_count
        history = recorders[subsystem.name].history
        assert is_serializable(history)
        assert avoids_cascading_aborts(history)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=500))
def test_property_deciders_agree_on_protocol_traces(seed):
    """exact == polynomial reducibility on real protocol prefixes."""
    workload = build_workload(
        WorkloadSpec(
            n_processes=3,
            n_activity_types=6,
            conflict_density=0.6,
            failure_probability=0.15,
            min_length=1,
            max_length=3,
            seed=seed,
        )
    )
    from repro.sim.runner import run_workload, schedule_of

    result = run_workload(workload, "process-locking", seed=seed)
    schedule = schedule_of(workload, result)
    limit = min(9, len(schedule.activities))
    for cut in range(1, len(schedule.events) + 1):
        prefix = schedule.prefix(cut)
        if len(prefix.activities) > limit:
            break
        assert exact_is_reducible(prefix) == poly_is_reducible(prefix)
        assert poly_is_reducible(prefix)  # and the protocol is correct
