"""Synthetic workload generation.

A :class:`WorkloadSpec` describes a population of activity types, a
conflict relation, and a set of process programs; :func:`build_workload`
materializes it deterministically from the spec's seed.

Two conflict-relation modes exist:

* **declared** (default): conflicts are sampled pairwise within each
  subsystem with probability ``conflict_density`` — directly controllable,
  used by the parameter-sweep experiments;
* **grounded** (``grounded=True``): every activity type gets a concrete
  transaction program over its subsystem's records, and the conflict
  matrix is *derived* from the read/write sets — used by the substrate
  experiments (E7) and the integration tests that run activities against
  real stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.activities.commutativity import (
    ConflictMatrix,
    derive_from_read_write_sets,
)
from repro.activities.registry import ActivityRegistry
from repro.process.builder import ProgramBuilder
from repro.process.program import ProcessProgram
from repro.sim.rng import derive_rng
from repro.subsystems.programs import (
    Operation,
    TransactionProgram,
    inverse_program,
)
from repro.subsystems.subsystem import SubsystemPool


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload."""

    n_processes: int = 8
    n_activity_types: int = 12
    n_subsystems: int = 3
    conflict_density: float = 0.3
    min_length: int = 3
    max_length: int = 6
    pivot_probability: float = 0.6
    alternative_count: int = 1
    parallel_probability: float = 0.0
    failure_probability: float = 0.05
    cost_range: tuple[float, float] = (1.0, 5.0)
    compensation_cost_range: tuple[float, float] = (0.5, 2.0)
    expensive_fraction: float = 0.0
    expensive_cost: float = 50.0
    retriable_tail: int = 2
    arrival_spacing: float = 0.0
    wcc_threshold: float = math.inf
    grounded: bool = False
    keys_per_subsystem: int = 8
    seed: int = 0

    def with_(self, **changes) -> "WorkloadSpec":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class Workload:
    """A materialized workload ready to run under any protocol."""

    spec: WorkloadSpec
    registry: ActivityRegistry
    conflicts: ConflictMatrix
    programs: list[ProcessProgram]
    #: Names of "expensive" activity types (bimodal-cost workloads).
    expensive_types: set[str] = field(default_factory=set)
    #: Transaction programs per activity name (grounded workloads only).
    data_programs: dict[str, TransactionProgram] = field(
        default_factory=dict
    )

    def arrival_time(self, index: int) -> float:
        """Virtual arrival time of the ``index``-th process."""
        return index * self.spec.arrival_spacing

    def make_subsystems(self) -> SubsystemPool | None:
        """A fresh subsystem pool (grounded workloads), else ``None``."""
        if not self.data_programs:
            return None
        pool = SubsystemPool()
        for activity_type in self.registry:
            pool.get_or_create(activity_type.subsystem)
        for name, program in self.data_programs.items():
            subsystem = pool.get(self.registry.get(name).subsystem)
            subsystem.register_program(name, program)
        return pool


def build_workload(spec: WorkloadSpec) -> Workload:
    """Materialize a workload from its spec, deterministically."""
    rng = derive_rng(spec.seed, "workload")
    registry = ActivityRegistry()
    expensive: set[str] = set()

    subsystem_of: dict[str, str] = {}
    compensatable: list[str] = []
    pivots: list[str] = []
    retriables: list[str] = []

    n_pivots = max(1, spec.n_activity_types // 6)
    n_retriables = max(2, spec.n_activity_types // 4)
    n_compensatable = max(
        1, spec.n_activity_types - n_pivots - n_retriables
    )

    def pick_cost() -> float:
        low, high = spec.cost_range
        return rng.uniform(low, high)

    def pick_comp_cost() -> float:
        low, high = spec.compensation_cost_range
        return rng.uniform(low, high)

    for index in range(n_compensatable):
        name = f"act{index:02d}"
        subsystem = f"sub{index % spec.n_subsystems}"
        subsystem_of[name] = subsystem
        cost = pick_cost()
        if rng.random() < spec.expensive_fraction:
            cost = spec.expensive_cost
            expensive.add(name)
        registry.define_compensatable(
            name,
            subsystem,
            cost=cost,
            compensation_cost=pick_comp_cost(),
            failure_probability=spec.failure_probability,
        )
    for index in range(n_pivots):
        name = f"piv{index:02d}"
        subsystem = f"sub{index % spec.n_subsystems}"
        subsystem_of[name] = subsystem
        registry.define_pivot(
            name,
            subsystem,
            cost=pick_cost(),
            failure_probability=spec.failure_probability / 2,
        )
        pivots.append(name)
    for index in range(n_retriables):
        name = f"ret{index:02d}"
        subsystem = f"sub{index % spec.n_subsystems}"
        subsystem_of[name] = subsystem
        registry.define_retriable(name, subsystem, cost=pick_cost())
        retriables.append(name)
    compensatable.extend(
        t.name
        for t in registry.regular_types()
        if t.compensatable
    )

    data_programs: dict[str, TransactionProgram] = {}
    if spec.grounded:
        conflicts = _grounded_conflicts(
            spec, rng, registry, subsystem_of, data_programs
        )
    else:
        conflicts = _declared_conflicts(spec, rng, registry)

    programs = [
        _build_program(
            spec, rng, index, registry, compensatable, pivots, retriables
        )
        for index in range(spec.n_processes)
    ]
    return Workload(
        spec=spec,
        registry=registry,
        conflicts=conflicts,
        programs=programs,
        expensive_types=expensive,
        data_programs=data_programs,
    )


def _declared_conflicts(
    spec: WorkloadSpec, rng, registry: ActivityRegistry
) -> ConflictMatrix:
    conflicts = ConflictMatrix(registry)
    regular = [t.name for t in registry.regular_types()]
    for i, first in enumerate(regular):
        for second in regular[i:]:
            if (
                registry.get(first).subsystem
                != registry.get(second).subsystem
            ):
                continue
            if rng.random() < spec.conflict_density:
                conflicts.declare_conflict(first, second)
    conflicts.close_perfect()
    return conflicts


def _grounded_conflicts(
    spec: WorkloadSpec,
    rng,
    registry: ActivityRegistry,
    subsystem_of: dict[str, str],
    data_programs: dict[str, TransactionProgram],
) -> ConflictMatrix:
    for activity_type in list(registry):
        if activity_type.is_compensation:
            continue
        name = activity_type.name
        subsystem = subsystem_of[name]
        n_ops = rng.randint(1, 3)
        ops = []
        for _ in range(n_ops):
            key = f"{subsystem}:k{rng.randrange(spec.keys_per_subsystem)}"
            if rng.random() < 0.5:
                ops.append(Operation.read(key))
            else:
                ops.append(Operation.write(key))
        program = TransactionProgram(name=name, operations=tuple(ops))
        data_programs[name] = program
        if activity_type.compensated_by is not None:
            data_programs[activity_type.compensated_by] = (
                inverse_program(
                    program, name=activity_type.compensated_by
                )
            )
    access = {
        name: (program.read_set, program.write_set)
        for name, program in data_programs.items()
        if not registry.get(name).is_compensation
    }
    return derive_from_read_write_sets(registry, access)


def _build_program(
    spec: WorkloadSpec,
    rng,
    index: int,
    registry: ActivityRegistry,
    compensatable: list[str],
    pivots: list[str],
    retriables: list[str],
) -> ProcessProgram:
    """One random process program with guaranteed termination.

    Shape: a body of compensatable steps (occasionally grouped into a
    parallel node), then — with probability ``pivot_probability`` — a
    pivot followed by ``alternative_count`` compensatable alternatives
    plus the mandatory assured (retriable) tail.
    """
    builder = ProgramBuilder(
        f"proc{index:03d}",
        registry,
        wcc_threshold=spec.wcc_threshold,
    )
    length = rng.randint(spec.min_length, spec.max_length)
    body_length = max(1, length - 1)
    position = 0
    while position < body_length:
        if (
            spec.parallel_probability > 0
            and len(compensatable) >= 2
            and position + 1 < body_length
            and rng.random() < spec.parallel_probability
        ):
            pair = rng.sample(compensatable, 2)
            builder.parallel(*pair)
            position += 2
        else:
            builder.step(rng.choice(compensatable))
            position += 1

    if pivots and rng.random() < spec.pivot_probability:
        builder.pivot(rng.choice(pivots))
        branches = []
        for _ in range(spec.alternative_count):
            alt_names = [
                rng.choice(compensatable)
                for _ in range(rng.randint(1, 2))
            ]

            def make_branch(names=tuple(alt_names)):
                def fill(nested: ProgramBuilder) -> None:
                    nested.sequence(*names)

                return fill

            branches.append(make_branch())
        tail_names = [
            rng.choice(retriables)
            for _ in range(max(1, spec.retriable_tail))
        ]

        def assured(nested: ProgramBuilder, names=tuple(tail_names)):
            nested.sequence(*names)

        branches.append(assured)
        builder.alternatives(*branches)
    return builder.build()
