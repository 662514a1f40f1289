"""Metric extraction from simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import EventMetrics
from repro.scheduler.manager import RunResult


@dataclass(frozen=True)
class RunMetrics:
    """Flat summary of one simulation run."""

    protocol: str
    committed: int
    submitted: int
    makespan: float
    throughput: float
    mean_latency: float
    mean_concurrency: float
    protocol_aborts: int
    intrinsic_aborts: int
    subprocess_aborts: int
    resubmissions: int
    compensations: int
    compensated_cost: float
    deadlock_victims: int
    unresolvable_violations: int
    defers: int
    cascade_victims: int
    #: Fault-injection counters (zero outside chaos runs): faults the
    #: injector forced, transient retries it caused, and manager
    #: crash/recover cycles survived.
    faults_injected: int = 0
    fault_retries: int = 0
    fault_recoveries: int = 0

    def as_row(self) -> dict[str, float]:
        """Dictionary form for table rendering."""
        return {
            "protocol": self.protocol,
            "committed": self.committed,
            "makespan": round(self.makespan, 2),
            "throughput": round(self.throughput, 4),
            "latency": round(self.mean_latency, 2),
            "concurrency": round(self.mean_concurrency, 3),
            "cascades": self.cascade_victims,
            "resubmits": self.resubmissions,
            "comp_cost": round(self.compensated_cost, 1),
            "unresolvable": self.unresolvable_violations,
        }


def _row(
    protocol_name: str,
    stats: EventMetrics,
    makespan: float,
    mean_latency: float,
    **fault_counters: int,
) -> RunMetrics:
    """The one :class:`RunMetrics` construction behind both summaries.

    Every count is read off ``stats``, the manager's fold over its
    event stream (which a chaos run's incarnations share).  Throughput
    and mean concurrency derive from ``stats`` and ``makespan`` exactly
    as :class:`RunResult` derives them.
    """
    return RunMetrics(
        protocol=protocol_name,
        committed=stats.committed,
        submitted=stats.submitted,
        makespan=makespan,
        throughput=stats.committed / makespan if makespan > 0 else 0.0,
        mean_latency=mean_latency,
        mean_concurrency=(
            stats.busy_area / makespan if makespan > 0 else 0.0
        ),
        protocol_aborts=stats.protocol_aborts,
        intrinsic_aborts=stats.intrinsic_aborts,
        subprocess_aborts=stats.subprocess_aborts,
        resubmissions=stats.resubmissions,
        compensations=stats.compensations,
        compensated_cost=stats.compensated_cost,
        deadlock_victims=stats.deadlock_victims,
        unresolvable_violations=(
            stats.unresolvable + stats.unresolvable_violations
        ),
        defers=stats.defers,
        cascade_victims=stats.cascade_victims,
        **fault_counters,
    )


def summarize(protocol_name: str, result: RunResult) -> RunMetrics:
    """Condense a :class:`RunResult` into a :class:`RunMetrics` row."""
    return _row(
        protocol_name, result.stats, result.makespan, result.mean_latency
    )


def summarize_chaos(protocol_name: str, chaos) -> RunMetrics:
    """Condense a fault-injected run (a ``ChaosRunResult``).

    The fold behind ``stats`` outlived every manager crash and the
    makespan is the incarnation-summed virtual time, so a run that
    survived crashes summarizes the whole logical execution, not just
    the final incarnation.  The fault counts are the fold's
    ``fault.inject`` channels, but for the outage windows opened.
    """
    stats = chaos.result.stats
    faults = stats.faults.value
    return _row(
        protocol_name,
        stats,
        chaos.makespan,
        chaos.result.mean_latency,
        faults_injected=faults(("failure",))
        + chaos.counters.outages_started
        + faults(("subsystem-crash",)),
        fault_retries=faults(("retry",)),
        fault_recoveries=faults(("manager-recover",)),
    )


def mean(values: list[float]) -> float:
    """Arithmetic mean (0.0 for an empty list)."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def aggregate(metrics: list[RunMetrics]) -> dict[str, float]:
    """Average the numeric fields of several runs (repetition sweeps)."""
    if not metrics:
        return {}
    return {
        "committed": mean([m.committed for m in metrics]),
        "throughput": mean([m.throughput for m in metrics]),
        "latency": mean([m.mean_latency for m in metrics]),
        "concurrency": mean([m.mean_concurrency for m in metrics]),
        "makespan": mean([m.makespan for m in metrics]),
        "cascades": mean([m.cascade_victims for m in metrics]),
        "resubmits": mean([m.resubmissions for m in metrics]),
        "comp_cost": mean([m.compensated_cost for m in metrics]),
        "unresolvable": mean(
            [m.unresolvable_violations for m in metrics]
        ),
        "deadlock_victims": mean([m.deadlock_victims for m in metrics]),
        "faults_injected": mean([m.faults_injected for m in metrics]),
        "fault_retries": mean([m.fault_retries for m in metrics]),
        "fault_recoveries": mean(
            [m.fault_recoveries for m in metrics]
        ),
    }
