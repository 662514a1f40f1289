"""Acceptance: correlated-outage storms under the resilience layer.

The fixed-seed storm below opens breakers while arrivals are still
streaming in, so the admission gate actually sheds processes and later
re-admits them — and the run must still satisfy the full invariant
battery (termination, CT, P-RC, splice, WAL).
"""

from __future__ import annotations

import dataclasses

from repro.faults.harness import run_chaos
from repro.faults.plan import CorrelatedOutage
from repro.faults.storms import (
    outage_storm,
    threshold_boundary_storm,
    threshold_boundary_subsystems,
)
from repro.resilience import (
    BreakerConfig,
    ResilienceConfig,
    ResilienceLayer,
)
from repro.scheduler.manager import ManagerConfig
from repro.sim.workload import WorkloadSpec, build_workload

#: Arrivals stretched out (spacing 2.0 over 20 processes) so the storm
#: has admissions left to shed once its breakers open.
STORM_SPEC = WorkloadSpec(
    n_processes=20,
    pivot_probability=1.0,
    alternative_count=0,
    retriable_tail=3,
    conflict_density=0.4,
    arrival_spacing=2.0,
    wcc_threshold=25.0,
    seed=3,
)

#: Aggressive breakers: two outage hits trip a subsystem open.
RESILIENCE = ResilienceConfig(
    breaker=BreakerConfig(failure_threshold=2, cooldown=15.0)
)


def run_storm(layer: ResilienceLayer):
    workload = build_workload(STORM_SPEC)
    plan = threshold_boundary_storm(
        workload, start_event=10, bursts=4, spacing=20, duration=20.0
    )
    config = ManagerConfig(
        audit=True,
        audit_every=8,
        resilience=layer,
    )
    return run_chaos(
        workload,
        "process-locking",
        plan,
        seed=STORM_SPEC.seed,
        workload_name="storm",
        config=config,
        ct_stride=5,
    )


class TestStormAcceptance:
    def test_storm_sheds_readmits_and_keeps_every_invariant(self):
        layer = ResilienceLayer(RESILIENCE)
        report = run_storm(layer)
        # Full battery, each check individually.
        assert report.checks["terminated"]
        assert report.checks["ct"]
        assert report.checks["prc"]
        assert report.checks["splice"]
        assert report.checks["wal"]
        assert report.ok
        # The layer did real work: breakers tripped, admissions were
        # shed while subsystems were dark, and every shed process came
        # back (termination covers them — the schedule is complete).
        stats = layer.stats
        assert stats.breaker_opens > 0
        assert stats.outage_hits > 0
        assert stats.admissions_deferred > 0
        assert stats.admissions_readmitted > 0
        assert stats.degradations >= 1
        assert report.admissions_deferred == stats.admissions_deferred

    def test_storm_is_deterministic(self, uid_floor):
        uid_floor.pin()
        first_layer = ResilienceLayer(RESILIENCE)
        first = run_storm(first_layer)
        uid_floor.repin()
        second_layer = ResilienceLayer(RESILIENCE)
        second = run_storm(second_layer)
        assert first.trace_digest == second.trace_digest
        assert first.schedule_canonical == second.schedule_canonical
        assert dataclasses.asdict(
            first_layer.stats
        ) == dataclasses.asdict(second_layer.stats)


class TestStormConstruction:
    def test_outage_storm_spaces_bursts(self):
        bursts = outage_storm(
            ("a", "b"), start_event=10, bursts=3, spacing=25
        )
        assert [b.at_event for b in bursts] == [10, 35, 60]
        assert all(isinstance(b, CorrelatedOutage) for b in bursts)
        assert all(b.subsystems == ("a", "b") for b in bursts)

    def test_boundary_targets_are_a_subsystem_subset(self):
        workload = build_workload(STORM_SPEC)
        targets = threshold_boundary_subsystems(workload)
        all_subsystems = {
            activity_type.subsystem
            for activity_type in workload.registry
        }
        assert targets
        assert set(targets) <= all_subsystems
        assert targets == threshold_boundary_subsystems(workload)

    def test_infinite_threshold_falls_back_to_every_subsystem(self):
        spec = dataclasses.replace(
            STORM_SPEC, wcc_threshold=float("inf")
        )
        workload = build_workload(spec)
        targets = threshold_boundary_subsystems(workload)
        all_subsystems = {
            activity_type.subsystem
            for activity_type in workload.registry
        }
        assert set(targets) == all_subsystems

    def test_storm_plan_validates_and_scopes_failures(self):
        workload = build_workload(STORM_SPEC)
        plan = threshold_boundary_storm(workload)
        plan.validate()
        targets = threshold_boundary_subsystems(workload)
        assert plan.failures.subsystems == targets
        assert all(
            outage.subsystems == targets
            for outage in plan.correlated_outages
        )
