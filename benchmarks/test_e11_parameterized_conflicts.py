"""E11 — Parameterized conflicts (the paper's granularity remark).

The type-level ``CON`` matrix is "the most general possibility" given
black-box activities, but the paper notes it "does not consider
parameters associated with these invocations".  When parameter
information is available, one logical activity can be expanded into a
partitioned type family (``reserve@sku0``, ``reserve@sku1``, …) so that
only same-partition invocations conflict.

This experiment builds a hot-spot workload — every process reserves one
of K SKUs, then pays through a shared gateway pivot — and compares the
coarse (single conflicting type) against the partitioned reading.
Expected shape: makespan drops and concurrency rises with the number of
partitions; at K = 1 both readings coincide.
"""

import pytest

from harness import print_experiment
from repro.activities.commutativity import ConflictMatrix
from repro.activities.partitioning import (
    coarse_equivalent,
    declare_family_self_conflicts,
    define_partitioned_compensatable,
)
from repro.activities.registry import ActivityRegistry
from repro.core.protocol import ProcessLockManager
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ManagerConfig, ProcessManager

PROCESSES = 12
PARTITION_COUNTS = [1, 2, 4, 8]


def run_hotspot(partitions: int, refined: bool, seed: int = 3):
    registry = ActivityRegistry()
    labels = [f"sku{i}" for i in range(partitions)]
    family = define_partitioned_compensatable(
        registry, "reserve", labels, "shop",
        cost=3.0, compensation_cost=1.0,
    )
    registry.define_pivot("charge", "gateway", cost=1.0)
    registry.define_retriable("ship", "shop", cost=1.0)
    matrix = ConflictMatrix(registry)
    if refined:
        declare_family_self_conflicts(matrix, family)
    else:
        coarse_equivalent(registry, matrix, family)
    matrix.close_perfect()
    protocol = ProcessLockManager(registry, matrix)
    manager = ProcessManager(
        protocol, config=ManagerConfig(audit=True), seed=seed
    )
    for index in range(PROCESSES):
        member = family.member(labels[index % partitions])
        program = (
            ProgramBuilder(f"order{index}", registry)
            .step(member)
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
            .build()
        )
        manager.submit(program)
    result = manager.run()
    return result


def run_e11():
    rows = []
    for count in PARTITION_COUNTS:
        for refined in (False, True):
            result = run_hotspot(count, refined)
            rows.append(
                {
                    "partitions": count,
                    "CON": "parameterized" if refined else "type-level",
                    "makespan": round(result.makespan, 1),
                    "concurrency": round(result.mean_concurrency, 2),
                    "cascades": result.stats.cascade_victims,
                }
            )
    return rows


@pytest.mark.benchmark(group="experiments")
def test_e11_parameterized_conflicts(benchmark):
    rows = benchmark.pedantic(run_e11, rounds=1, iterations=1)
    print_experiment(
        "E11: type-level vs parameterized CON on a hot-spot workload",
        rows,
    )
    by = {
        (row["partitions"], row["CON"]): row["makespan"]
        for row in rows
    }
    # Identical when there is nothing to partition.
    assert by[(1, "parameterized")] == by[(1, "type-level")]
    # The refinement helps, and more partitions help more.
    for count in PARTITION_COUNTS[1:]:
        assert by[(count, "parameterized")] < by[(count, "type-level")]
    refined_series = [
        by[(count, "parameterized")] for count in PARTITION_COUNTS
    ]
    assert refined_series[-1] < refined_series[0]