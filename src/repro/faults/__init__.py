"""Deterministic fault injection (chaos testing) for the simulator.

Layers:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` compiled by
  :func:`compile_plan` into a byte-stable :class:`FaultSchedule`;
* :mod:`repro.faults.retry` — bounded retry/backoff policies that keep
  termination guaranteed under injected transient failures;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that drives
  a manager through a schedule (outages, subsystem crashes, manager
  crash/recover cycles, seeded failure/latency decisions);
* :mod:`repro.faults.harness` — the one campaign behind ``repro chaos``:
  runs asserting termination, CT, P-RC, trace splicing, and that
  no doomed subsystem write reached a store, per run;
* :mod:`repro.faults.storms` — correlated-outage burst trains,
  including storms aimed at the cost-based ``Wcc*`` boundary.
"""

from repro.faults.harness import (
    DEFAULT_PROTOCOLS,
    CampaignReport,
    ChaosRunReport,
    canonical_trace,
    default_plans,
    default_workloads,
    run_campaign,
    run_chaos,
    trace_digest,
)
from repro.faults.injector import (
    ChaosRunResult,
    FaultCounters,
    FaultInjector,
    WalCheck,
)
from repro.faults.plan import (
    ActivityFailures,
    CorrelatedOutage,
    FaultPlan,
    FaultSchedule,
    InjectedLatency,
    Injection,
    ManagerCrash,
    RetrySpec,
    SubsystemCrash,
    SubsystemOutage,
    compile_plan,
)
from repro.faults.retry import (
    ExponentialBackoff,
    FixedBackoff,
    JitteredBackoff,
    RetryPolicy,
    make_policy,
)
from repro.faults.storms import (
    outage_storm,
    threshold_boundary_storm,
    threshold_boundary_subsystems,
)

__all__ = [
    "ActivityFailures",
    "CampaignReport",
    "ChaosRunReport",
    "ChaosRunResult",
    "CorrelatedOutage",
    "DEFAULT_PROTOCOLS",
    "ExponentialBackoff",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FixedBackoff",
    "InjectedLatency",
    "Injection",
    "JitteredBackoff",
    "ManagerCrash",
    "RetryPolicy",
    "RetrySpec",
    "SubsystemCrash",
    "SubsystemOutage",
    "WalCheck",
    "canonical_trace",
    "compile_plan",
    "default_plans",
    "default_workloads",
    "make_policy",
    "outage_storm",
    "run_campaign",
    "run_chaos",
    "threshold_boundary_storm",
    "threshold_boundary_subsystems",
    "trace_digest",
]
