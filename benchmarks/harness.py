"""Shared helpers for the benchmark/experiment harness.

Every file in this directory regenerates one paper exhibit (Tables 1–2,
Figure 1) or one claim experiment (E1–E8 of DESIGN.md): it runs the
workload sweep, prints the resulting table (so ``pytest benchmarks/
--benchmark-only -s`` doubles as the experiment report), asserts the
*shape* the paper predicts, and times the run via pytest-benchmark.

Absolute numbers are simulator-relative; the assertions check orderings
and monotone trends, never point values.
"""

from __future__ import annotations

from repro.analysis.tables import render_dict_table, render_table
from repro.scheduler.manager import ManagerConfig
from repro.sim.metrics import aggregate
from repro.sim.runner import run_protocol_over_seeds
from repro.sim.workload import WorkloadSpec

#: Seeds used for repetition averaging in every experiment.
SEEDS = [11, 22, 33, 44]


def averaged_metrics(
    spec: WorkloadSpec,
    protocol: str,
    seeds: list[int] | None = None,
    config: ManagerConfig | None = None,
) -> dict[str, float]:
    """Run ``protocol`` over seed-varied workloads; average the metrics."""
    rows = run_protocol_over_seeds(
        spec, protocol, seeds=seeds or SEEDS, config=config
    )
    return aggregate(rows)


def sweep(
    spec_for: dict[str, WorkloadSpec],
    protocol: str,
    seeds: list[int] | None = None,
) -> dict[str, dict[str, float]]:
    """Run one protocol across labelled workload variants."""
    return {
        label: averaged_metrics(spec, protocol, seeds=seeds)
        for label, spec in spec_for.items()
    }


def print_experiment(
    title: str, rows: list[dict[str, object]],
    headers: list[str] | None = None,
) -> None:
    print()
    print(render_dict_table(rows, headers=headers, title=title))


__all__ = [
    "SEEDS",
    "averaged_metrics",
    "print_experiment",
    "render_table",
    "sweep",
]
