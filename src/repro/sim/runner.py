"""Run workloads under any protocol and collect results.

The runner is the experiment entry point used by examples, tests, and the
benchmark harness: it instantiates a protocol by name, drives all of a
workload's programs through a fresh :class:`ProcessManager`, optionally
checks the resulting schedule against the theory oracles, and returns a
:class:`RunResult` / :class:`RunMetrics` pair.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.baselines.aca import CascadeAvoidingScheduler
from repro.baselines.osl import PureOrderedSharedLocking
from repro.baselines.s2pl import StrictTwoPhaseLocking
from repro.baselines.serial import SerialScheduler
from repro.core.protocol import ProcessLockManager
from repro.errors import SchedulerError
from repro.scheduler.manager import (
    ManagerConfig,
    RunResult,
    make_manager,
)
from repro.sim.metrics import RunMetrics, summarize
from repro.sim.rng import spread_seeds
from repro.sim.workload import Workload, WorkloadSpec, build_workload
from repro.theory.schedule import ProcessSchedule

#: Registry of runnable protocols: name -> factory(registry, conflicts).
PROTOCOL_FACTORIES: dict[str, Callable] = {
    "process-locking": lambda reg, con: ProcessLockManager(
        reg, con, cost_based=True
    ),
    "process-locking-basic": lambda reg, con: ProcessLockManager(
        reg, con, cost_based=False
    ),
    "s2pl": StrictTwoPhaseLocking,
    "osl-pure": PureOrderedSharedLocking,
    "serial": SerialScheduler,
    "aca": CascadeAvoidingScheduler,
}


def make_protocol(name: str, workload: Workload):
    """Instantiate the named protocol over the workload's relation."""
    try:
        factory = PROTOCOL_FACTORIES[name]
    except KeyError:
        raise SchedulerError(
            f"unknown protocol {name!r}; choose from "
            f"{sorted(PROTOCOL_FACTORIES)}"
        ) from None
    return factory(workload.registry, workload.conflicts)


def run_workload(
    workload: Workload,
    protocol_name: str = "process-locking",
    seed: int = 0,
    config: ManagerConfig | None = None,
    arrivals: list[float] | None = None,
    tracer=None,
) -> RunResult:
    """Execute every program of ``workload`` under one protocol.

    ``arrivals`` overrides the workload's built-in arrival times (see
    :mod:`repro.sim.arrivals` for generators); it must provide one time
    per program.  ``tracer`` (a :class:`repro.obs.Tracer`) records the
    run's decision events; omitted, tracing is disabled and the run is
    byte-identical to an uninstrumented one.
    """
    if arrivals is not None and len(arrivals) != len(workload.programs):
        raise SchedulerError(
            f"{len(arrivals)} arrival times for "
            f"{len(workload.programs)} programs"
        )
    protocol = make_protocol(protocol_name, workload)
    manager = make_manager(
        protocol,
        subsystems=workload.make_subsystems(),
        config=config,
        seed=seed,
        tracer=tracer,
    )
    for index, program in enumerate(workload.programs):
        at = (
            arrivals[index]
            if arrivals is not None
            else workload.arrival_time(index)
        )
        manager.submit(program, at=at)
    return manager.run()


def run_and_summarize(
    workload: Workload,
    protocol_name: str = "process-locking",
    seed: int = 0,
    config: ManagerConfig | None = None,
) -> tuple[RunResult, RunMetrics]:
    """Run a workload and return both the raw result and its summary."""
    result = run_workload(workload, protocol_name, seed=seed, config=config)
    return result, summarize(protocol_name, result)


def compare_protocols(
    workload: Workload,
    protocol_names: list[str],
    seed: int = 0,
    config: ManagerConfig | None = None,
) -> dict[str, RunMetrics]:
    """Run the same workload under several protocols (fresh state each)."""
    rows: dict[str, RunMetrics] = {}
    for name in protocol_names:
        __, metrics = run_and_summarize(
            workload, name, seed=seed, config=config
        )
        rows[name] = metrics
    return rows


def run_protocol_over_seeds(
    spec: WorkloadSpec,
    protocol_name: str,
    seeds: list[int] | None = None,
    seed: int = 0,
    repetitions: int = 4,
    config: ManagerConfig | None = None,
) -> list[RunMetrics]:
    """Run seed-varied builds of one workload spec, one row per seed.

    ``seeds`` wins when given; otherwise ``repetitions`` seeds are
    spread from ``seed``.
    """
    if seeds is None:
        seeds = spread_seeds(seed, repetitions)
    return [
        run_and_summarize(
            build_workload(spec.with_(seed=run_seed)),
            protocol_name,
            seed=run_seed,
            config=config,
        )[1]
        for run_seed in seeds
    ]


def schedule_of(workload: Workload, result: RunResult) -> ProcessSchedule:
    """The observed schedule of a run, ready for the theory oracles."""
    return result.trace.to_schedule(workload.conflicts.conflict)
