"""Chaos harness: sweep fault plans × workloads × protocols.

One campaign runs every combination and asserts, per run, the paper's
end-to-end guarantees *under faults*:

* **termination** — every process reaches an acceptable terminal state
  (the observed schedule is complete; the simulation reached
  quiescence);
* **conservation** — every submitted pid ends in exactly one outcome,
  none lost across a manager crash;
* **CT** — the complete schedule has correct termination
  (Definition 6 / Theorem 1), checked on every prefix;
* **P-RC** — the schedule is process-recoverable (Definition 7 /
  Theorem 2);
* **splice** — after every manager crash the recovered trace continued
  the pre-crash trace exactly;
* **WAL** — no doomed write of a crashed subsystem transaction reached
  the store.

Every lock-table step checks its own invariants (as in every run), so
a broken invariant fails its run with ``invariant: ...`` even when the
end-to-end checks would pass.

Every decision in a campaign derives from ``(plan, seed)``, so two
campaigns with the same seed produce byte-identical fault schedules and
(uid-renumbered) traces — the determinism tests assert exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import (
    CommitValidationError,
    ProtocolError,
    SchedulerError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivityFailures,
    CorrelatedOutage,
    FaultPlan,
    InjectedLatency,
    ManagerCrash,
    RetrySpec,
    SubsystemCrash,
    SubsystemOutage,
    compile_plan,
)
from repro.faults.storms import threshold_boundary_storm
from repro.scheduler.events import conserved
from repro.scheduler.manager import ManagerConfig
from repro.sim.metrics import RunMetrics, summarize_chaos
from repro.sim.workload import Workload, WorkloadSpec, build_workload

#: Campaign protocols.  All three guarantee CT/P-RC, so the harness can
#: assert the theory oracles for every run; the other baselines (s2pl,
#: osl-pure, aca) intentionally violate them and are exercised
#: elsewhere.
DEFAULT_PROTOCOLS = (
    "process-locking",
    "process-locking-basic",
    "serial",
)


def canonical_trace(events) -> str:
    """Byte-stable serialization of a list of schedule events.

    Activity uids come from a process-global counter; remapping them to
    first-appearance order makes traces comparable across runs within
    one interpreter.
    """
    renumber: dict[int, int] = {}

    def canon(uid):
        if uid is None or uid == 0:
            return uid
        return renumber.setdefault(uid, len(renumber) + 1)

    return json.dumps(
        [
            (
                event.position,
                str(event.process),
                event.kind.value,
                event.name,
                canon(event.uid),
                canon(event.compensates),
            )
            for event in events
        ],
        separators=(",", ":"),
    )


def trace_digest(events) -> str:
    """Short hex digest of the canonical trace."""
    return hashlib.sha256(
        canonical_trace(events).encode()
    ).hexdigest()[:16]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class ChaosRunReport:
    """Outcome of one fault-injected run with its invariant verdicts."""

    plan: str
    workload: str
    protocol: str
    seed: int
    #: Canonical form of the compiled fault schedule (byte-stable).
    schedule_canonical: str
    checks: dict[str, bool] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    metrics: RunMetrics | None = None
    trace_digest: str = ""
    incarnations: int = 1
    dropped_injections: int = 0
    #: Simulation events processed across every incarnation.
    events: int = 0
    #: Retry budgets that forced a failing retriable to succeed.
    retry_budget_exhausted: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_chaos(
    workload: Workload,
    protocol_name: str,
    plan: FaultPlan,
    seed: int = 0,
    workload_name: str = "",
    config: ManagerConfig | None = None,
) -> ChaosRunReport:
    """Run one plan against one workload/protocol and check invariants."""
    schedule = compile_plan(plan, seed)
    report = ChaosRunReport(
        plan=plan.name,
        workload=workload_name or f"seed{workload.spec.seed}",
        protocol=protocol_name,
        seed=seed,
        schedule_canonical=schedule.canonical(),
    )
    injector = FaultInjector(
        workload, protocol_name, schedule, config=config, seed=seed
    )
    try:
        chaos = injector.run()
    except SchedulerError as exc:  # StarvationError is one
        report.checks["terminated"] = False
        report.failures.append(f"liveness: {exc}")
        return report
    except (ProtocolError, CommitValidationError) as exc:
        # a lock-table step or a subsystem commit broke an invariant
        report.failures.append(f"invariant: {exc}")
        return report
    verdict = chaos.result.trace.verdict
    report.checks["terminated"] = verdict.complete
    report.checks["conserved"] = conserved(
        chaos.result.records, chaos.result.stats
    )
    report.checks["ct"] = verdict.correct_termination
    report.checks["prc"] = verdict.process_recoverable
    report.checks["splice"] = chaos.splice_ok
    report.checks["wal"] = all(check.ok for check in chaos.wal_checks)
    report.failures = [
        name for name, passed in report.checks.items() if not passed
    ]
    report.metrics = summarize_chaos(protocol_name, chaos)
    report.trace_digest = trace_digest(chaos.result.trace.events)
    report.incarnations = chaos.incarnations
    report.dropped_injections = chaos.counters.dropped_injections
    report.events = chaos.events
    report.retry_budget_exhausted = int(
        chaos.result.stats.retry_budget.total()
    )
    return report


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
#: The workload-independent plans: a control, one per fault family, and
#: a correlated group outage.
_FIXED_PLANS = (
    FaultPlan(name="baseline"),
    FaultPlan(
        name="failures",
        failures=ActivityFailures(rate_scale=3.0, transient_prob=0.25),
        retry=RetrySpec(kind="exponential", max_attempts=4),
    ),
    FaultPlan(
        name="outages",
        outages=(
            SubsystemOutage("sub0", at_event=30, duration=25.0),
            SubsystemOutage("sub1", at_event=70, duration=15.0),
        ),
        retry=RetrySpec(kind="fixed", base_delay=2.0),
    ),
    FaultPlan(
        name="crashes",
        subsystem_crashes=(SubsystemCrash("sub0", at_event=40),),
        manager_crashes=(
            ManagerCrash(at_event=20),
            ManagerCrash(at_event=60),
        ),
        latency=InjectedLatency(extra=0.5, jitter=0.5),
    ),
    FaultPlan(
        name="mayhem",
        failures=ActivityFailures(rate_scale=2.0, transient_prob=0.15),
        outages=(SubsystemOutage("sub1", at_event=35, duration=20.0),),
        subsystem_crashes=(SubsystemCrash("sub2", at_event=55),),
        manager_crashes=(ManagerCrash(at_event=25),),
        latency=InjectedLatency(extra=0.25, jitter=1.0),
        retry=RetrySpec(kind="jittered", jitter=0.5, max_attempts=5),
    ),
    # Two subsystems go dark from one trigger, a failure front 2.0
    # apart, while a third crashes and the manager crashes after both.
    FaultPlan(
        name="correlated",
        failures=ActivityFailures(rate_scale=1.5, transient_prob=0.15),
        correlated_outages=(
            CorrelatedOutage(
                subsystems=("sub0", "sub1"),
                at_event=30,
                duration=15.0,
                stagger=2.0,
            ),
        ),
        subsystem_crashes=(SubsystemCrash("sub2", at_event=45),),
        manager_crashes=(ManagerCrash(at_event=60),),
        latency=InjectedLatency(extra=0.25, jitter=0.5),
        retry=RetrySpec(kind="jittered", jitter=0.5, max_attempts=5),
    ),
)


def default_plans(workload: Workload) -> list[FaultPlan]:
    """The campaign's plans for one workload: the fixed ones plus a
    correlated-outage storm aimed at the workload's ``Wcc*`` frontier."""
    return [*_FIXED_PLANS, threshold_boundary_storm(workload, name="storm")]


def default_workloads(seed: int) -> dict[str, Workload]:
    """The campaign workloads, materialized once per campaign."""
    specs = {
        "small": WorkloadSpec(n_processes=6, seed=seed),
        "dense-parallel": WorkloadSpec(
            n_processes=8,
            conflict_density=0.5,
            parallel_probability=0.4,
            alternative_count=2,
            seed=seed + 1,
        ),
        # Pivot always taken with no alternatives: the retriable tail
        # always executes, exercising transient retries and backoff.
        "cost-threshold": WorkloadSpec(
            n_processes=6,
            wcc_threshold=25.0,
            pivot_probability=1.0,
            alternative_count=0,
            retriable_tail=3,
            seed=seed + 2,
        ),
        "grounded-durable": WorkloadSpec(
            n_processes=6,
            grounded=True,
            seed=seed + 3,
        ),
        # The longest runs: arrivals keep streaming into the outage
        # windows, and the grounded pool gives the crashes a store to
        # check.
        "spaced-16": WorkloadSpec(
            n_processes=16,
            conflict_density=0.4,
            retriable_tail=3,
            arrival_spacing=0.5,
            wcc_threshold=25.0,
            grounded=True,
            seed=seed + 4,
        ),
    }
    return {name: build_workload(spec) for name, spec in specs.items()}


@dataclass
class CampaignReport:
    """All runs of one chaos campaign."""

    seed: int
    runs: list[ChaosRunReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def failed(self) -> list[ChaosRunReport]:
        return [run for run in self.runs if not run.ok]

    def counts(self) -> dict[str, int]:
        return {
            "runs": len(self.runs),
            "passed": sum(1 for run in self.runs if run.ok),
            "failed": len(self.failed),
            "events": sum(run.events for run in self.runs),
            "recoveries": sum(run.incarnations - 1 for run in self.runs),
            "injected": sum(
                run.metrics.faults_injected for run in self.runs
            ),
            "retries": sum(
                run.metrics.fault_retries for run in self.runs
            ),
            "retry_budget_exhausted": sum(
                run.retry_budget_exhausted for run in self.runs
            ),
            "dropped_injections": sum(
                run.dropped_injections for run in self.runs
            ),
        }


def run_campaign(
    seed: int = 0,
    protocols: tuple[str, ...] | None = None,
) -> CampaignReport:
    """Sweep workloads × plans × protocols and check every invariant.

    7 plans × 5 workloads × the 3 default protocols = 105 runs.
    """
    protocols = protocols or DEFAULT_PROTOCOLS
    report = CampaignReport(seed=seed)
    for workload_name, workload in default_workloads(seed).items():
        for plan in default_plans(workload):
            for protocol_name in protocols:
                report.runs.append(
                    run_chaos(
                        workload,
                        protocol_name,
                        plan,
                        seed=seed,
                        workload_name=workload_name,
                    )
                )
    return report
