"""Chaos harness: campaigns, acceptance checks, CLI determinism."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import cli
from repro.faults.harness import (
    DEFAULT_PROTOCOLS,
    default_plans,
    default_workloads,
    run_campaign,
    run_chaos,
)
from repro.faults.plan import FaultPlan, ManagerCrash
from repro.faults.storms import threshold_boundary_subsystems
from repro.sim.workload import WorkloadSpec, build_workload
from repro.subsystems.subsystem import SubsystemPool
from tests.test_subsystems.oracles import let_a_writer_past_held_locks


#: The plans and workloads the campaign ran before it took over the soak
#: campaign's shapes; they keep their names and specs.
EARLIER_PLANS = {"baseline", "failures", "outages", "crashes", "mayhem"}
EARLIER_WORKLOADS = {
    "small", "dense-parallel", "cost-threshold", "grounded-durable"
}
#: sha256 prefix of the sorted ``(plan, workload, protocol, checks,
#: dropped_injections, trace_digest)`` rows of all 105 runs at seed 7:
#: a moved verdict, dropped injection or schedule of any run moves it.
CAMPAIGN_ROWS_DIGEST = "34cdd641771ecc57"


@pytest.fixture(scope="module")
def campaign():
    """``repro chaos --seed 7``, CI's campaign, run once per module."""
    return run_campaign(seed=7)


class TestCampaign:
    def test_full_campaign_passes_every_acceptance_check(self, campaign):
        assert campaign.ok, [
            (r.plan, r.workload, r.protocol, r.failures)
            for r in campaign.failed
        ]
        counts = campaign.counts()
        # The campaign must actually exercise every channel.
        assert counts["injected"] > 0
        assert counts["retries"] > 0
        assert counts["recoveries"] > 0
        assert counts["retry_budget_exhausted"] > 0
        assert all(
            run.checks["conserved"] and run.checks["wal"]
            for run in campaign.runs
        )

    def test_campaign_shape(self, campaign):
        workloads = default_workloads(7)
        plans = [plan.name for plan in default_plans(workloads["small"])]
        assert plans == [
            "baseline", "failures", "outages", "crashes", "mayhem",
            "correlated", "storm",
        ]
        cells = {(r.plan, r.workload, r.protocol) for r in campaign.runs}
        assert cells == {
            (plan, workload, protocol)
            for plan in plans
            for workload in workloads
            for protocol in DEFAULT_PROTOCOLS
        }
        assert len(campaign.runs) == len(cells) == 105
        assert EARLIER_PLANS < set(plans)
        assert EARLIER_WORKLOADS < set(workloads)

    def test_audits_leave_the_earlier_rows_unchanged(self, campaign):
        """The earlier rows and every later one: each run's verdicts,
        dropped injections and schedule are pinned by one digest."""
        rows = sorted(
            (
                r.plan,
                r.workload,
                r.protocol,
                sorted(r.checks.items()),
                r.dropped_injections,
                r.trace_digest,
            )
            for r in campaign.runs
        )
        assert len(rows) == 105
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest[:16] == CAMPAIGN_ROWS_DIGEST

    def test_storm_is_aimed_per_workload(self):
        workloads = default_workloads(7)
        storms = {
            name: default_plans(workload)[-1]
            for name, workload in workloads.items()
        }
        for name, storm in storms.items():
            targets = threshold_boundary_subsystems(workloads[name])
            assert storm.name == "storm"
            assert storm.failures.subsystems == targets
            assert all(
                group.subsystems == targets
                for group in storm.correlated_outages
            )

    def test_seed7_campaign_meets_the_event_floor(self, campaign):
        """The floor the long-horizon runs were held to: CI asserts it
        on ``repro chaos --seed 7 --json``."""
        assert campaign.counts()["events"] >= 1000

    def test_counts_aggregate_run_fields(self, campaign):
        counts = campaign.counts()
        assert counts["runs"] == len(campaign.runs)
        assert counts["events"] == sum(run.events for run in campaign.runs)
        assert counts["retry_budget_exhausted"] == sum(
            run.retry_budget_exhausted for run in campaign.runs
        )
        assert counts["recoveries"] == sum(
            run.incarnations - 1 for run in campaign.runs
        )

    def test_paired_campaigns_are_byte_identical(self, campaign):
        # Trace digests renumber uids, so no uid floor is needed.
        again = run_campaign(seed=7, protocols=("process-locking",))
        first = [r for r in campaign.runs if r.protocol == "process-locking"]
        assert [r.schedule_canonical for r in first] == [
            r.schedule_canonical for r in again.runs
        ]
        assert [r.trace_digest for r in first] == [
            r.trace_digest for r in again.runs
        ]
        assert [r.checks for r in first] == [r.checks for r in again.runs]

    def test_different_seeds_diverge(self, campaign):
        other = run_campaign(seed=4, protocols=("process-locking",))
        assert other.ok, [(r.plan, r.workload, r.failures) for r in other.failed]
        first = [r for r in campaign.runs if r.protocol == "process-locking"]
        assert [r.trace_digest for r in first] != [
            r.trace_digest for r in other.runs
        ]


class TestRecoveredRunAccounting:
    def test_recovered_run_merges_incarnation_counters(self):
        workload = build_workload(WorkloadSpec(n_processes=5, seed=3))
        plan = FaultPlan(
            name="mc", manager_crashes=(ManagerCrash(at_event=20),)
        )
        report = run_chaos(
            workload, "process-locking", plan, seed=11
        )
        assert report.ok, report.failures
        assert report.incarnations == 2
        assert report.metrics.fault_recoveries == 1
        # Merged submission counter reflects the real population, not
        # the double-counted re-adoptions of the second incarnation.
        assert report.metrics.submitted == 5


class TestAuditedRun:
    def test_a_broken_invariant_fails_the_run_not_the_campaign(
        self, monkeypatch
    ):
        """Every run checks every lock-table step: an acquire that drops
        its blocker edge fails the run it happens in, and only that."""
        from repro.core.lock_table import LockTable

        workload = build_workload(WorkloadSpec(n_processes=4, seed=3))
        plan = FaultPlan(name="baseline")
        assert run_chaos(workload, "process-locking", plan).ok
        monkeypatch.setattr(
            LockTable, "_add_block_edge", lambda self, blocker, waiter: None
        )
        report = run_chaos(workload, "process-locking", plan)
        assert len(report.failures) == 1
        assert report.failures[0].startswith("invariant: ")
        assert "blockers of P" in report.failures[0]
        assert not report.ok

    def test_a_subsystem_commit_failing_its_check_fails_the_run(
        self, monkeypatch
    ):
        """Every subsystem commit is validated: one overtaken by a
        writer let past its locks fails the run as an invariant."""
        workload = build_workload(
            WorkloadSpec(n_processes=4, grounded=True, seed=3)
        )
        plan = FaultPlan(name="baseline")
        assert run_chaos(workload, "process-locking", plan).ok
        create = SubsystemPool.create

        def create_broken(pool, name):
            subsystem = create(pool, name)
            let_a_writer_past_held_locks(subsystem)
            return subsystem

        monkeypatch.setattr(SubsystemPool, "create", create_broken)
        report = run_chaos(workload, "process-locking", plan)
        assert len(report.failures) == 1
        assert report.failures[0].startswith("invariant: txn ")
        assert "committed 1 time(s) by other transactions" in (
            report.failures[0]
        )


class TestCli:
    def test_chaos_verb_exits_zero_on_green_campaign(self, capsys):
        assert cli.main(
            ["chaos", "--seed", "7", "--protocols", "serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos campaign (seed 7)" in out
        assert "35/35 runs passed" in out

    def test_chaos_dump_schedules_prints_canonical_plans(self, capsys):
        code = cli.main(
            ["chaos", "--seed", "7", "--protocols", "serial",
             "--dump-schedules"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for workload in default_workloads(7).values():
            for plan in default_plans(workload):
                # canonical() emits compact separators: no space after ':'.
                assert f'"plan":"{plan.name}"' in out
