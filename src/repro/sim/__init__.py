"""Workload generation, simulation running, and metric collection."""

from repro.sim.arrivals import poisson_arrivals
from repro.sim.metrics import RunMetrics, aggregate, summarize
from repro.sim.rng import derive_rng, spread_seeds
from repro.sim.runner import (
    PROTOCOL_FACTORIES,
    compare_protocols,
    make_protocol,
    run_and_summarize,
    run_workload,
    schedule_of,
)
from repro.sim.workload import Workload, WorkloadSpec, build_workload

__all__ = [
    "PROTOCOL_FACTORIES",
    "RunMetrics",
    "Workload",
    "WorkloadSpec",
    "aggregate",
    "build_workload",
    "poisson_arrivals",
    "compare_protocols",
    "derive_rng",
    "make_protocol",
    "run_and_summarize",
    "run_workload",
    "schedule_of",
    "spread_seeds",
    "summarize",
]
