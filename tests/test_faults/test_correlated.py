"""Correlated outages: validation, staggered windows, determinism."""

from __future__ import annotations

import json

import pytest

from repro.errors import SchedulerError
from repro.faults.harness import run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CorrelatedOutage,
    FaultPlan,
    InjectedLatency,
    ManagerCrash,
    RetrySpec,
    SubsystemOutage,
    compile_plan,
)
from repro.sim.workload import WorkloadSpec, build_workload

#: Retriable-heavy workload: outage windows actually get hit.
SPEC = WorkloadSpec(
    n_processes=6,
    pivot_probability=1.0,
    alternative_count=0,
    retriable_tail=2,
    arrival_spacing=1.0,
    seed=5,
)


def run_plan(plan, seed=9):
    workload = build_workload(SPEC)
    injector = FaultInjector(
        workload,
        "process-locking",
        compile_plan(plan, seed),
        seed=seed,
    )
    return injector.run()


class TestValidation:
    def check(self, match, **kwargs):
        plan = FaultPlan(name="bad", **kwargs)
        with pytest.raises(SchedulerError, match=match):
            plan.validate()

    def test_empty_group_rejected(self):
        self.check(
            "names no subsystems",
            correlated_outages=(
                CorrelatedOutage((), at_event=5, duration=1.0),
            ),
        )

    def test_duplicate_member_rejected(self):
        self.check(
            "lists a subsystem twice",
            correlated_outages=(
                CorrelatedOutage(
                    ("a", "a"), at_event=5, duration=1.0
                ),
            ),
        )

    def test_nonpositive_duration_rejected(self):
        self.check(
            "duration must be > 0",
            correlated_outages=(
                CorrelatedOutage(("a",), at_event=5, duration=0.0),
            ),
        )

    def test_negative_stagger_rejected(self):
        self.check(
            "stagger must be >= 0",
            correlated_outages=(
                CorrelatedOutage(
                    ("a",), at_event=5, duration=1.0, stagger=-1.0
                ),
            ),
        )

    def test_overlapping_windows_across_kinds_rejected(self):
        self.check(
            "overlapping outage windows on 'a' at event 5",
            outages=(SubsystemOutage("a", at_event=5, duration=2.0),),
            correlated_outages=(
                CorrelatedOutage(
                    ("a", "b"), at_event=5, duration=1.0
                ),
            ),
        )

    def test_duplicate_plain_outages_rejected(self):
        self.check(
            "overlapping outage windows",
            outages=(
                SubsystemOutage("a", at_event=7, duration=2.0),
                SubsystemOutage("a", at_event=7, duration=3.0),
            ),
        )

    def test_negative_latency_rejected(self):
        self.check(
            "latency extra must be >= 0",
            latency=InjectedLatency(extra=-0.5),
        )
        self.check(
            "latency jitter must be >= 0",
            latency=InjectedLatency(jitter=-0.5),
        )

    def test_negative_event_index_rejected(self):
        self.check(
            "negative event index -1 on ManagerCrash",
            manager_crashes=(ManagerCrash(at_event=-1),),
        )

    def test_injection_past_horizon_rejected(self):
        self.check(
            r"ManagerCrash at event 500 lies past the plan horizon",
            manager_crashes=(ManagerCrash(at_event=500),),
            horizon=100,
        )

    def test_negative_horizon_rejected(self):
        self.check("horizon must be >= 0", horizon=-1)

    def test_horizon_boundary_is_inclusive(self):
        FaultPlan(
            name="edge",
            manager_crashes=(ManagerCrash(at_event=100),),
            horizon=100,
        ).validate()

    def test_compile_runs_validate(self):
        plan = FaultPlan(
            name="bad",
            correlated_outages=(
                CorrelatedOutage((), at_event=5, duration=1.0),
            ),
        )
        with pytest.raises(SchedulerError):
            compile_plan(plan, 0)


class TestCorrelatedInjection:
    def plan(self, stagger=0.0):
        return FaultPlan(
            name="corr",
            correlated_outages=(
                CorrelatedOutage(
                    ("sub0", "sub1"),
                    at_event=10,
                    duration=20.0,
                    stagger=stagger,
                ),
            ),
            retry=RetrySpec(kind="fixed", base_delay=2.0),
        )

    def test_counts_one_group_and_member_outages(self):
        chaos = run_plan(self.plan())
        assert chaos.result.stats.faults.value(
            ("correlated-outage",)
        ) == 1
        assert chaos.counters.outages_started == 2
        assert chaos.result.records

    def test_stagger_offsets_member_windows(self):
        workload = build_workload(SPEC)
        injector = FaultInjector(
            workload,
            "process-locking",
            compile_plan(self.plan(stagger=3.0), 9),
            seed=9,
        )
        injector.run()
        windows = injector._outages
        (start0, _), = windows["sub0"]
        (start1, _), = windows["sub1"]
        assert start1 - start0 == pytest.approx(3.0)

    def test_correlated_outage_traces_one_event(self):
        from repro.obs import Tracer

        workload = build_workload(SPEC)
        tracer = Tracer()
        injector = FaultInjector(
            workload,
            "process-locking",
            compile_plan(self.plan(stagger=1.0), 9),
            seed=9,
            tracer=tracer,
        )
        injector.run()
        records = [
            record
            for record in tracer.records()
            if record["kind"] == "fault.inject"
            and record["channel"] == "correlated-outage"
        ]
        assert len(records) == 1
        detail = records[0]["detail"]
        assert detail["subsystems"] == ["sub0", "sub1"]
        assert detail["stagger"] == 1.0

    def test_runs_are_deterministic(self, uid_floor):
        uid_floor.pin()
        first = run_plan(self.plan(stagger=2.0))
        uid_floor.repin()
        second = run_plan(self.plan(stagger=2.0))
        from repro.faults.harness import canonical_trace

        assert canonical_trace(
            first.result.trace.events
        ) == canonical_trace(second.result.trace.events)

    def test_canonical_round_trips_group_fields(self):
        schedule = compile_plan(self.plan(stagger=2.5), 4)
        payload = json.loads(schedule.canonical())
        (injection,) = payload["injections"]
        assert injection["kind"] == "correlated-outage"
        assert injection["spec"]["subsystems"] == ["sub0", "sub1"]
        assert injection["spec"]["stagger"] == 2.5
        assert (
            compile_plan(self.plan(stagger=2.5), 4).canonical()
            == schedule.canonical()
        )

    def test_full_invariant_battery_under_correlated_outage(self):
        workload = build_workload(SPEC)
        report = run_chaos(
            workload,
            "process-locking",
            self.plan(stagger=2.0),
            seed=9,
            workload_name="corr",
        )
        assert report.ok, report.failures
