"""FaultInjector behaviour: each injection channel, end to end."""

from __future__ import annotations

from repro.faults.harness import canonical_trace, run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivityFailures,
    FaultPlan,
    InjectedLatency,
    ManagerCrash,
    RetrySpec,
    SubsystemCrash,
    SubsystemOutage,
    compile_plan,
)
from repro.obs import Tracer, explain_process, replay_metrics
from repro.scheduler.manager import ManagerConfig
from repro.sim.metrics import summarize_chaos
from repro.sim.workload import WorkloadSpec, build_workload

#: Pivot always taken, no alternatives: the retriable tail always runs.
RETRIABLE_SPEC = WorkloadSpec(
    n_processes=4,
    pivot_probability=1.0,
    alternative_count=0,
    retriable_tail=2,
    seed=1,
)
PLAIN_SPEC = WorkloadSpec(n_processes=5, seed=3)
GROUNDED_SPEC = WorkloadSpec(n_processes=5, grounded=True, seed=2)


def run_plan(spec, plan, protocol="process-locking", seed=11):
    workload = build_workload(spec)
    injector = FaultInjector(
        workload, protocol, compile_plan(plan, seed), seed=seed
    )
    return injector.run()


class TestFailureInjection:
    def test_scaled_failures_fire_and_run_terminates(self):
        plan = FaultPlan(
            name="hot",
            failures=ActivityFailures(rate_scale=100.0),
        )
        chaos = run_plan(PLAIN_SPEC, plan)
        assert chaos.counters.injected_failures > 0
        # Guaranteed termination: everything still reaches a terminal
        # state despite near-certain failures.
        assert chaos.result.records

    def test_zero_scale_never_fails(self):
        plan = FaultPlan(
            name="cold", failures=ActivityFailures(rate_scale=0.0)
        )
        chaos = run_plan(PLAIN_SPEC, plan)
        assert chaos.counters.injected_failures == 0

    def test_decisions_are_paired_run_deterministic(self, uid_floor):
        plan = FaultPlan(
            name="hot",
            failures=ActivityFailures(
                rate_scale=5.0, transient_prob=0.5
            ),
        )
        uid_floor.pin()
        first = run_plan(RETRIABLE_SPEC, plan)
        uid_floor.repin()
        second = run_plan(RETRIABLE_SPEC, plan)
        assert canonical_trace(
            first.result.trace.events
        ) == canonical_trace(second.result.trace.events)
        assert first.counters == second.counters


class TestRetryBudget:
    def test_certain_transient_failure_bounded_by_budget(self):
        plan = FaultPlan(
            name="storm",
            failures=ActivityFailures(transient_prob=1.0),
            retry=RetrySpec(kind="fixed", max_attempts=3),
        )
        chaos = run_plan(RETRIABLE_SPEC, plan)
        counters = chaos.counters
        assert counters.injected_retries > 0
        # The hook answers "fail transiently" on every attempt, but the
        # budget grants only max_attempts-1 = 2 retries per execution:
        # each exhausted cycle is 3 injected answers, 2 granted retries,
        # then an intrinsic abort.  Without the budget this plan would
        # retry forever.
        assert counters.injected_retries % 3 == 0
        cycles = counters.injected_retries // 3
        assert chaos.result.stats.retries == 2 * cycles

    def test_a_shared_config_carries_no_policy_into_the_next_run(
        self, uid_floor
    ):
        """The injector used to install the plan's retry policy on the
        config it was handed, so a plan without a retry spec ran under
        the previous plan's budget when both shared one config."""
        workload = build_workload(RETRIABLE_SPEC)
        budgeted = FaultPlan(
            name="budgeted",
            failures=ActivityFailures(transient_prob=0.8),
            retry=RetrySpec(kind="fixed", max_attempts=2),
        )
        unbudgeted = FaultPlan(
            name="unbudgeted",
            failures=ActivityFailures(transient_prob=0.8),
        )
        shared = ManagerConfig()
        run_chaos(workload, "process-locking", budgeted, config=shared)
        assert shared.retry_policy is None
        uid_floor.pin()
        on_shared = run_chaos(
            workload, "process-locking", unbudgeted, config=shared
        )
        uid_floor.repin()
        on_fresh = run_chaos(workload, "process-locking", unbudgeted)
        assert on_shared.trace_digest == on_fresh.trace_digest
        assert on_shared.retry_budget_exhausted == 0
        assert (
            on_shared.metrics.fault_retries
            == on_fresh.metrics.fault_retries
        )


class TestLatencyInjection:
    def test_latency_stretches_makespan(self, uid_floor):
        quiet = FaultPlan(name="quiet")
        slow = FaultPlan(
            name="slow", latency=InjectedLatency(extra=2.0)
        )
        uid_floor.pin()
        base = run_plan(PLAIN_SPEC, quiet)
        uid_floor.repin()
        delayed = run_plan(PLAIN_SPEC, slow)
        assert delayed.counters.latency_injections > 0
        assert delayed.makespan > base.makespan


class TestOutages:
    def test_outage_forces_retries_and_lifts(self):
        plan = FaultPlan(
            name="down",
            outages=tuple(
                SubsystemOutage(f"sub{i}", at_event=5, duration=12.0)
                for i in range(3)
            ),
            retry=RetrySpec(kind="fixed", base_delay=2.0),
        )
        chaos = run_plan(RETRIABLE_SPEC, plan)
        assert chaos.counters.outages_started == 3
        assert chaos.counters.outage_hits > 0
        # The outage window is finite, so the run still terminates.
        assert chaos.result.records


class TestManagerCrash:
    def test_crash_recovers_and_splices(self):
        plan = FaultPlan(
            name="mc", manager_crashes=(ManagerCrash(at_event=20),)
        )
        chaos = run_plan(PLAIN_SPEC, plan)
        assert chaos.incarnations == 2
        assert chaos.counters.manager_recoveries == 1
        assert chaos.splice_ok
        # One fold across incarnations: a pid re-scheduled or adopted by
        # the recovered manager is not submitted a second time.
        assert chaos.result.stats.submitted == len(chaos.result.records)
        assert chaos.result.stats.committed > 0

    def test_counts_equal_a_replay_of_the_spliced_stream(self):
        """A run summary counts what the spliced event stream says
        happened.  This crash lands after defers and cascades, and while
        a completing process unwinds a failed subprocess: the summary
        used to read defers and cascade victims from the last
        incarnation's protocol alone, and a recovered manager counted
        the unwinding subprocess abort a second time."""
        spec = WorkloadSpec(
            n_processes=8,
            conflict_density=0.5,
            parallel_probability=0.4,
            alternative_count=2,
            seed=6,
        )
        plan = FaultPlan(
            name="crash",
            failures=ActivityFailures(rate_scale=8.0),
            manager_crashes=(ManagerCrash(at_event=35),),
        )
        tracer = Tracer()
        chaos = FaultInjector(
            build_workload(spec),
            "process-locking",
            compile_plan(plan, 6),
            seed=6,
            tracer=tracer,
        ).run()
        assert chaos.incarnations == 2
        metrics = summarize_chaos("pl", chaos)
        replayed = replay_metrics(tracer.records())
        counted = (
            metrics.defers,
            metrics.cascade_victims,
            metrics.subprocess_aborts,
        )
        assert counted == (
            replayed.lock_defers.total(),
            replayed.aborts.value(("cascade",)),
            replayed.aborts.value(("subprocess",)),
        )
        assert all(counted)

    def test_crash_dropped_for_protocols_without_recovery(self):
        plan = FaultPlan(
            name="mc", manager_crashes=(ManagerCrash(at_event=20),)
        )
        chaos = run_plan(PLAIN_SPEC, plan, protocol="serial")
        assert chaos.incarnations == 1
        assert chaos.counters.manager_recoveries == 0
        assert chaos.counters.dropped_injections >= 1

    def test_injections_past_the_end_are_dropped(self):
        plan = FaultPlan(
            name="late",
            manager_crashes=(ManagerCrash(at_event=10_000_000),),
        )
        chaos = run_plan(PLAIN_SPEC, plan)
        assert chaos.incarnations == 1
        assert chaos.counters.dropped_injections == 1


class TestSubsystemCrash:
    def test_wal_recovery_rolls_doomed_writes_back(self):
        plan = FaultPlan(
            name="sc",
            subsystem_crashes=(SubsystemCrash("sub0", at_event=15),),
        )
        chaos = run_plan(GROUNDED_SPEC, plan)
        assert chaos.counters.subsystem_crashes == 1
        assert len(chaos.wal_checks) == 1
        check = chaos.wal_checks[0]
        assert check.ok
        assert check.undone >= 1
        assert check.losers_after == 0
        assert check.sentinels_rolled_back

    def test_dropped_without_durable_pool(self):
        plan = FaultPlan(
            name="sc",
            subsystem_crashes=(SubsystemCrash("sub0", at_event=15),),
        )
        chaos = run_plan(PLAIN_SPEC, plan)  # no grounded pool at all
        assert chaos.counters.subsystem_crashes == 0
        assert chaos.counters.dropped_injections == 1
        assert chaos.wal_checks == []


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
