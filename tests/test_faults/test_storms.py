"""Acceptance: correlated-outage storms at the ``Wcc*`` boundary.

The fixed-seed storm below takes the subsystems of the
threshold-crossing activities dark in bursts while arrivals are still
streaming in — the failure mode that stresses pseudo-pivot protection
most — and the run must still satisfy the full invariant battery
(termination, CT, P-RC, splice, WAL).
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
from repro.sim.workload import WorkloadSpec, build_workload

#: Arrivals stretched out (spacing 2.0 over 20 processes) so processes
#: keep arriving into subsystems the storm has already taken dark.
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


def run_storm():
    workload = build_workload(STORM_SPEC)
    plan = threshold_boundary_storm(
        workload, start_event=10, bursts=4, spacing=20, duration=20.0
    )
    return run_chaos(
        workload,
        "process-locking",
        plan,
        seed=STORM_SPEC.seed,
        workload_name="storm",
    )


class TestStormAcceptance:
    def test_storm_keeps_every_invariant(self):
        report = run_storm()
        # Full battery, each check individually.
        assert report.checks["terminated"]
        assert report.checks["ct"]
        assert report.checks["prc"]
        assert report.checks["splice"]
        assert report.checks["wal"]
        assert report.ok
        # The storm bit: activities ran into the dark subsystems.
        assert report.metrics.faults_injected > 0

    def test_storm_is_deterministic(self, uid_floor):
        uid_floor.pin()
        first = run_storm()
        uid_floor.repin()
        second = run_storm()
        assert first.trace_digest == second.trace_digest
        assert first.schedule_canonical == second.schedule_canonical


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
