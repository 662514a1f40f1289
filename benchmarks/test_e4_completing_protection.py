"""E4 — Cascading aborts are restricted to running processes.

High-contention workload under process locking; the run instruments the
manager to census the state of every cascade victim at abort time.
Expected shape: *all* victims are running, none completing, and
completing processes commit with lower residual latency than the overall
mean (they are first-class).
"""

import pytest

from harness import print_experiment
from repro.process.state import ProcessState
from repro.scheduler.manager import ProcessManager
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload

SPEC = WorkloadSpec(
    n_processes=12,
    n_activity_types=12,
    conflict_density=0.7,
    failure_probability=0.08,
    pivot_probability=0.9,
)


class CensusManager(ProcessManager):
    """Manager that records each cascade victim's state at selection.

    The census hooks the decision's event: the states are captured the
    instant the protocol names its victims, before any abort work runs.
    (``_begin_protocol_abort`` itself is also re-invoked idempotently
    for victims whose abort a nested cascade already started, so hooking
    there would double-count.)
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.victim_states: list[str] = []

    def _trace_decision(self, decision, request):
        from repro.core.decisions import AbortVictims

        if isinstance(decision, AbortVictims):
            for pid in decision.victims:
                victim = self._processes.get(pid)
                if victim is not None:
                    self.victim_states.append(victim.state.value)
        super()._trace_decision(decision, request)


def run_e4():
    states: list[str] = []
    committed = 0
    submitted = 0
    for seed in (5, 6, 7, 8):
        workload = build_workload(SPEC.with_(seed=seed))
        protocol = make_protocol("process-locking", workload)
        manager = CensusManager(protocol, seed=seed)
        for program in workload.programs:
            manager.submit(program)
        result = manager.run()
        states.extend(manager.victim_states)
        committed += result.stats.committed
        submitted += result.stats.submitted
    return states, committed, submitted


@pytest.mark.benchmark(group="experiments")
def test_e4_completing_protection(benchmark):
    states, committed, submitted = benchmark.pedantic(
        run_e4, rounds=1, iterations=1
    )
    census = {
        state: states.count(state)
        for state in sorted(set(states))
    }
    rows = [
        {"victim state": state, "count": count}
        for state, count in census.items()
    ]
    rows.append(
        {"victim state": "(committed processes)",
         "count": f"{committed}/{submitted}"}
    )
    print_experiment(
        "E4: cascade-victim state census under process locking", rows,
    )

    assert states, "the workload must actually produce cascades"
    # The paper's guarantee: cascades hit running processes only.
    assert ProcessState.COMPLETING.value not in census
    assert set(census) == {ProcessState.RUNNING.value}
