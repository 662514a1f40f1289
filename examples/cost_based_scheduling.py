#!/usr/bin/env python3
"""Cost-based process scheduling: the ACA ↔ P-RC spectrum (Section 4).

Hospital order-entry processes contain an expensive laboratory panel.
Under pure process locking a running process can be cascade-aborted even
after the panel ran — the work is redone.  The cost-based extension
assigns each process program a threshold ``Wcc*``; once a process's
worst-case cost crosses it, further activities take P locks (pseudo
pivots) and other processes can no longer cascade into it.

This example sweeps the threshold and shows the trade-off the paper
describes: lower thresholds protect more work from compensation but admit
less concurrency.

Run with::

    python examples/cost_based_scheduling.py
"""

import math

from repro.analysis import figure1_text, render_table
from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ManagerConfig, ProcessManager
from repro.workloads import LAB_PANEL_COST, hospital_scenario


def run_with_threshold(threshold: float, seed: int = 5):
    scenario = hospital_scenario(
        patients=8, wards=2, failure_probability=0.05,
        wcc_threshold=threshold,
    )
    protocol = ProcessLockManager(scenario.registry, scenario.conflicts)
    manager = ProcessManager(
        protocol,
        subsystems=scenario.make_subsystems(),
        config=ManagerConfig(audit=True),
        seed=seed,
    )
    for program in scenario.programs:
        manager.submit(program)
    result = manager.run()
    lab_compensations = sum(
        1
        for record in result.records.values()
        for name in record.compensated_names
        if name.startswith("order_lab_panel")
    )
    return result, protocol, lab_compensations


def main() -> None:
    print(figure1_text())
    print()

    rows = []
    thresholds = [1.0, LAB_PANEL_COST, 3 * LAB_PANEL_COST, math.inf]
    for threshold in thresholds:
        result, protocol, lab_comps = run_with_threshold(threshold)
        rows.append(
            (
                "inf" if math.isinf(threshold) else f"{threshold:g}",
                result.stats.committed,
                f"{result.makespan:.0f}",
                result.stats.cascade_victims,
                lab_comps,
                f"{result.stats.compensated_cost_protocol:.0f}",
            )
        )
    print(
        render_table(
            [
                "Wcc*",
                "committed",
                "makespan",
                "cascade victims",
                "lab panels undone",
                "cascade comp. cost",
            ],
            rows,
            title=(
                "Threshold sweep: protection (left) vs concurrency "
                "(right) — hospital order entry, 8 patients"
            ),
        )
    )
    print()
    print(
        "Reading: with a low Wcc* the expensive lab panel is never\n"
        "compensated because of other processes (cascade cost ~0), at\n"
        "the price of longer makespans; Wcc* = inf is pure process\n"
        "locking — fastest, but cascades may undo expensive work."
    )


if __name__ == "__main__":
    main()
