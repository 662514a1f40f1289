"""E6 — Cost-based scheduling protects expensive work (Section 4).

Bimodal-cost workload (30% of compensatable activities cost 50, the rest
1–5).  Once a process's worst-case cost crosses ``Wcc*`` its locks are
pivot-treated, so *cascading aborts* — the Comp-, Piv-, and C⁻¹-Rule
victim channel the paper discusses — can no longer reach it.

Measured shape: the number of expensive activities undone because of a
**cascade** is exactly zero under a finite threshold at the expensive
cost, and positive under pure process locking.  Deadlock-cycle
resolution (a channel the paper does not model; it only exists because
pseudo-pivot deferment can cycle) is reported separately.
"""

import math

import pytest

from harness import print_experiment
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload

SEEDS = [2, 3, 5, 8, 13, 21]

BASE = WorkloadSpec(
    n_processes=10,
    n_activity_types=12,
    conflict_density=0.5,
    failure_probability=0.04,
    expensive_fraction=0.3,
    expensive_cost=50.0,
    pivot_probability=0.7,
)


def measure(threshold: float) -> dict[str, float]:
    by_cause = {"cascade": 0, "deadlock": 0, "other": 0}
    committed = 0
    makespan = 0.0
    for seed in SEEDS:
        workload = build_workload(
            BASE.with_(wcc_threshold=threshold, seed=seed)
        )
        result = run_workload(
            workload, "process-locking", seed=seed,
        )
        committed += result.stats.committed
        makespan += result.makespan
        for record in result.records.values():
            for name, cause in zip(
                record.compensated_names, record.compensated_causes
            ):
                if name not in workload.expensive_types:
                    continue
                if cause == "protocol-abort:cascade":
                    by_cause["cascade"] += 1
                elif cause == "protocol-abort:deadlock":
                    by_cause["deadlock"] += 1
                else:
                    by_cause["other"] += 1
    n = len(SEEDS)
    return {
        "expensive_undone_by_cascade": by_cause["cascade"] / n,
        "expensive_undone_by_deadlock": by_cause["deadlock"] / n,
        "expensive_undone_other": by_cause["other"] / n,
        "committed": committed / n,
        "makespan": makespan / n,
    }


def run_e6():
    return {
        "Wcc* = 50 (protected)": measure(50.0),
        "Wcc* = inf (pure PL)": measure(math.inf),
    }


@pytest.mark.benchmark(group="experiments")
def test_e6_expensive_protection(benchmark):
    table = benchmark.pedantic(run_e6, rounds=1, iterations=1)
    rows = [
        {
            "configuration": label,
            "exp. undone (cascade)": round(
                m["expensive_undone_by_cascade"], 2
            ),
            "exp. undone (deadlock)": round(
                m["expensive_undone_by_deadlock"], 2
            ),
            "exp. undone (own failure)": round(
                m["expensive_undone_other"], 2
            ),
            "committed": round(m["committed"], 1),
            "makespan": round(m["makespan"], 1),
        }
        for label, m in table.items()
    ]
    print_experiment(
        "E6: protecting expensive activities from cascading aborts "
        f"(mean of {len(SEEDS)} seeds)", rows,
    )
    protected = table["Wcc* = 50 (protected)"]
    pure = table["Wcc* = inf (pure PL)"]
    # The paper's guarantee, verbatim: once pivot-treated, a process can
    # no longer be aborted "due to the failure of some other process".
    assert protected["expensive_undone_by_cascade"] == 0.0
    assert pure["expensive_undone_by_cascade"] > 0.0
    # Pure process locking never needs deadlock resolution.
    assert pure["expensive_undone_by_deadlock"] == 0.0
