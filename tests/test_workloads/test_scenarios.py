"""Tests for the four domain scenarios (paper Section 6 applications)."""

import pytest

from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ProcessManager
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)
from repro.workloads import (
    LAB_PANEL_COST,
    hospital_scenario,
    manufacturing_scenario,
    payment_scenario,
    travel_scenario,
)

SCENARIOS = [
    ("payment", lambda: payment_scenario(customers=5, items=2)),
    ("travel", lambda: travel_scenario(trips=5)),
    ("hospital", lambda: hospital_scenario(patients=4)),
    ("manufacturing", lambda: manufacturing_scenario(orders=5)),
]


@pytest.mark.parametrize("name,maker", SCENARIOS)
class TestScenarioStructure:
    def test_programs_validate(self, name, maker):
        scenario = maker()
        for program in scenario.programs:
            program.validate()

    def test_conflicts_perfect(self, name, maker):
        scenario = maker()
        assert scenario.conflicts.is_perfect()

    def test_every_activity_grounded(self, name, maker):
        scenario = maker()
        for program in scenario.programs:
            for activity_name in program.activity_names():
                assert activity_name in scenario.data_programs

    def test_subsystem_pool_complete(self, name, maker):
        scenario = maker()
        pool = scenario.make_subsystems()
        for activity_type in scenario.registry:
            assert activity_type.subsystem in pool


@pytest.mark.parametrize("name,maker", SCENARIOS)
class TestScenarioExecution:
    def test_runs_correctly_under_process_locking(self, name, maker):
        scenario = maker()
        protocol = ProcessLockManager(
            scenario.registry, scenario.conflicts
        )
        manager = ProcessManager(
            protocol,
            subsystems=scenario.make_subsystems(),
            seed=11,
        )
        for program in scenario.programs:
            manager.submit(program)
        result = manager.run()
        assert result.stats.committed >= 1
        schedule = result.trace.to_schedule(scenario.conflicts.conflict)
        assert has_correct_termination(schedule)
        assert is_process_recoverable(schedule)

    def test_subsystem_histories_cpsr_aca(self, name, maker):
        scenario = maker()
        protocol = ProcessLockManager(
            scenario.registry, scenario.conflicts
        )
        pool = scenario.make_subsystems()
        manager = ProcessManager(
            protocol, subsystems=pool, seed=4
        )
        for program in scenario.programs:
            manager.submit(program)
        manager.run()
        # Every commit passed the online check; a failure would have
        # raised out of run().
        for subsystem in pool:
            assert subsystem.counters.validated == subsystem.committed_count


class TestScenarioSpecifics:
    def test_payment_pivot_is_charge(self):
        scenario = payment_scenario(customers=1)
        charge = scenario.registry.get("charge_card")
        assert charge.point_of_no_return

    def test_travel_parallel_node(self):
        scenario = travel_scenario(trips=1, parallel_booking=True)
        assert scenario.programs[0].root.is_parallel

    def test_travel_sequential_option(self):
        scenario = travel_scenario(trips=1, parallel_booking=False)
        assert not scenario.programs[0].root.is_parallel

    def test_hospital_lab_panel_is_expensive(self):
        scenario = hospital_scenario(patients=1)
        panel = scenario.registry.get("order_lab_panel_w0")
        assert panel.cost == LAB_PANEL_COST
        assert panel.compensatable

    def test_hospital_threshold_plumbs_through(self):
        scenario = hospital_scenario(patients=1, wcc_threshold=7.0)
        assert scenario.programs[0].wcc_threshold == 7.0

    def test_manufacturing_shared_machine_conflicts(self):
        scenario = manufacturing_scenario(orders=2, machines=1)
        # Both orders book the same machine: their bookings conflict.
        assert scenario.conflicts.conflict(
            "book_machine_0", "book_machine_0"
        )

    def test_cross_subsystem_activities_commute(self):
        scenario = payment_scenario(customers=1)
        assert not scenario.conflicts.conflict(
            "check_cart", "ship_standard"
        )
