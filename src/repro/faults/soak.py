"""Long-horizon soak campaign: thousands of virtual-time events.

One soak run chains several chaos *rounds* — rotating workload shapes
(dense, grounded-durable, cost-threshold) against rotating fault plans
(``Wcc*``-boundary storms, correlated mayhem with manager crashes,
transient-failure churn) — with periodic structural audits engaged
(``ManagerConfig(audit=True, audit_every=...)``) and the full invariant
battery (termination / CT / P-RC / splice / WAL) asserted per round.

Rounds are seeded from ``plan.seed`` alone, so soak reports are
deterministic byte for byte.

``repro soak`` drives this from the CLI; the CI ``smoke`` job
asserts a fixed-seed soak of ≥ 1000 events passes with zero violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.harness import ChaosRunReport, run_chaos
from repro.faults.plan import (
    ActivityFailures,
    CorrelatedOutage,
    FaultPlan,
    InjectedLatency,
    ManagerCrash,
    RetrySpec,
    SubsystemCrash,
)
from repro.faults.storms import threshold_boundary_storm
from repro.scheduler.manager import ManagerConfig
from repro.sim.workload import WorkloadSpec, build_workload

#: Horizon declared on generated soak plans: every injection index must
#: fall inside it (validated), and it bounds where late injections may
#: be scheduled.
_SOAK_HORIZON = 100_000


@dataclass(frozen=True)
class SoakPlan:
    """Parameters of one soak campaign."""

    seed: int = 0
    rounds: int = 12
    processes: int = 16
    wcc_threshold: float = 25.0
    protocol: str = "process-locking"
    #: Structural-audit sampling cadence (1 = audit every event).
    audit_every: int = 16
    #: The campaign fails if fewer total events were processed.
    min_events: int = 1000


@dataclass
class SoakReport:
    """Outcome of one soak campaign."""

    plan: SoakPlan
    runs: list[ChaosRunReport] = field(default_factory=list)
    events_total: int = 0

    @property
    def ok(self) -> bool:
        return (
            all(run.ok for run in self.runs)
            and self.events_total >= self.plan.min_events
        )

    @property
    def failed(self) -> list[ChaosRunReport]:
        return [run for run in self.runs if not run.ok]

    def counts(self) -> dict[str, int]:
        return {
            "rounds": len(self.runs),
            "passed": sum(1 for run in self.runs if run.ok),
            "failed": len(self.failed),
            "events": self.events_total,
            "recoveries": sum(
                run.incarnations - 1 for run in self.runs
            ),
            "injected": sum(
                run.metrics.faults_injected
                for run in self.runs
                if run.metrics
            ),
            "retry_budget_exhausted": sum(
                run.retry_budget_exhausted for run in self.runs
            ),
        }


def _round_spec(plan: SoakPlan, round_index: int) -> WorkloadSpec:
    """The workload shape of one soak round (rotates deterministically)."""
    grounded = round_index % 2 == 1
    return WorkloadSpec(
        n_processes=plan.processes,
        conflict_density=0.3 + 0.1 * (round_index % 3),
        pivot_probability=1.0 if round_index % 3 == 0 else 0.6,
        alternative_count=0 if round_index % 3 == 0 else 1,
        retriable_tail=3,
        arrival_spacing=0.5,
        wcc_threshold=plan.wcc_threshold,
        grounded=grounded,
        seed=plan.seed + 101 * round_index,
    )


def _round_plan(
    plan: SoakPlan, round_index: int, workload
) -> FaultPlan:
    """The fault plan of one soak round (rotates over three families)."""
    family = round_index % 3
    if family == 0:
        return threshold_boundary_storm(
            workload, name=f"soak-storm-r{round_index}"
        )
    if family == 1:
        grounded = workload.spec.grounded
        return FaultPlan(
            name=f"soak-mayhem-r{round_index}",
            failures=ActivityFailures(
                rate_scale=1.5, transient_prob=0.15
            ),
            correlated_outages=(
                CorrelatedOutage(
                    subsystems=("sub0", "sub1"),
                    at_event=30,
                    duration=15.0,
                    stagger=2.0,
                ),
            ),
            subsystem_crashes=(
                (SubsystemCrash("sub2", at_event=45),)
                if grounded
                else ()
            ),
            manager_crashes=(ManagerCrash(at_event=60),),
            latency=InjectedLatency(extra=0.25, jitter=0.5),
            retry=RetrySpec(
                kind="jittered", jitter=0.5, max_attempts=5
            ),
            horizon=_SOAK_HORIZON,
        )
    return FaultPlan(
        name=f"soak-failures-r{round_index}",
        failures=ActivityFailures(rate_scale=2.5, transient_prob=0.2),
        retry=RetrySpec(kind="exponential", max_attempts=4),
        horizon=_SOAK_HORIZON,
    )


def run_soak(plan: SoakPlan) -> SoakReport:
    """Run the whole soak campaign and collect its report."""
    report = SoakReport(plan=plan)
    for round_index in range(plan.rounds):
        workload = build_workload(_round_spec(plan, round_index))
        fault_plan = _round_plan(plan, round_index, workload)
        config = ManagerConfig(audit=True, audit_every=plan.audit_every)
        run = run_chaos(
            workload,
            plan.protocol,
            fault_plan,
            seed=plan.seed + round_index,
            workload_name=f"round{round_index}",
            config=config,
            ct_stride=7,
        )
        report.runs.append(run)
        report.events_total += run.events
    return report
