"""Soak campaign and the traced retry-budget-exhausted satellite."""

from __future__ import annotations

from repro.faults.plan import (
    ActivityFailures,
    FaultPlan,
    RetrySpec,
    compile_plan,
)
from repro.faults.injector import FaultInjector
from repro.faults.soak import SoakPlan, SoakReport, run_soak
from repro.obs import Tracer, explain_process
from repro.sim.workload import WorkloadSpec, build_workload

#: Small but real: three rounds cover all three fault families.
SMALL = SoakPlan(seed=7, rounds=3, processes=8, min_events=150)


class TestSoak:
    def test_small_soak_passes_every_round(self):
        report = run_soak(SMALL)
        assert len(report.runs) == SMALL.rounds
        assert all(run.ok for run in report.runs), [
            run.failures for run in report.runs
        ]
        assert report.events_total >= SMALL.min_events
        assert report.ok

    def test_event_floor_gates_ok(self):
        strict = SoakPlan(
            seed=7, rounds=3, processes=8, min_events=10**9
        )
        report = run_soak(strict)
        assert all(run.ok for run in report.runs)
        assert not report.ok

    def test_default_plan_meets_its_own_floor(self):
        """``repro soak --seed 7`` at the verb's defaults — CI's smoke
        step — passes every round *and* its 1,000-event floor."""
        report = run_soak(SoakPlan(seed=7))
        assert [run.failures for run in report.runs if not run.ok] == []
        assert report.events_total >= report.plan.min_events == 1000
        assert report.ok

    def test_soak_is_deterministic(self, uid_floor):
        def digests(report: SoakReport):
            return [run.trace_digest for run in report.runs]

        uid_floor.pin()
        first = run_soak(SMALL)
        uid_floor.repin()
        second = run_soak(SMALL)
        assert digests(first) == digests(second)
        assert first.counts() == second.counts()

    def test_counts_aggregate_run_fields(self):
        report = run_soak(SMALL)
        counts = report.counts()
        assert counts["rounds"] == SMALL.rounds
        assert counts["events"] == report.events_total
        assert counts["events"] == sum(
            run.events for run in report.runs
        )
        assert counts["retry_budget_exhausted"] == sum(
            run.retry_budget_exhausted for run in report.runs
        )


class TestRetryBudgetExhaustedEvent:
    def chaos(self, tracer=None):
        # Every retriable attempt fails transiently; a budget of 2
        # guarantees exhaustion on every retriable activity.
        spec = WorkloadSpec(
            n_processes=3,
            pivot_probability=1.0,
            alternative_count=0,
            retriable_tail=2,
            seed=5,
        )
        plan = FaultPlan(
            name="exhaust",
            failures=ActivityFailures(transient_prob=1.0),
            retry=RetrySpec(
                kind="fixed", base_delay=1.0, max_attempts=2
            ),
        )
        workload = build_workload(spec)
        injector = FaultInjector(
            workload,
            "process-locking",
            compile_plan(plan, 5),
            seed=5,
            tracer=tracer,
        )
        return injector.run()

    def test_counter_and_event_fire_together(self):
        tracer = Tracer()
        chaos = self.chaos(tracer)
        records = [
            record
            for record in tracer.records()
            if record["kind"] == "retry.budget_exhausted"
        ]
        assert chaos.counters.retry_budget_exhausted > 0
        assert len(records) == chaos.counters.retry_budget_exhausted
        sample = records[0]
        assert sample["attempts"] == 2
        assert sample["activity"]
        assert sample["subsystem"]

    def test_explain_narrates_the_exhaustion(self):
        tracer = Tracer()
        self.chaos(tracer)
        records = tracer.records()
        pid = next(
            record["pid"]
            for record in records
            if record["kind"] == "retry.budget_exhausted"
        )
        text = explain_process(records, pid)
        assert "retry budget exhausted" in text
        assert "treated as success" in text
