"""Witness extraction for correctness violations.

The boolean criteria checkers answer *whether* a schedule is reducible
or recoverable; this module answers *why not*, producing concrete
witnesses for debugging protocol variants:

* :func:`explain_irreducibility` — the serialization-graph cycle among
  surviving activities, plus any compensation pairs stuck behind
  conflicting in-between activities;
* :func:`first_bad_prefix` — the shortest prefix that already violates
  reducibility (dynamic schedulers must keep every prefix reducible).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deadlock import find_cycle
from repro.theory.criteria import ScheduleMonitor
from repro.theory.reduction import Reduction
from repro.theory.schedule import (
    ProcessKey,
    ProcessSchedule,
    ScheduleEvent,
)


@dataclass
class StuckPair:
    """A compensation pair that cannot cancel."""

    regular: ScheduleEvent
    compensation: ScheduleEvent
    blockers: list[ScheduleEvent] = field(default_factory=list)

    def describe(self) -> str:
        blocked_by = ", ".join(str(b) for b in self.blockers)
        return (
            f"pair ({self.regular}, {self.compensation}) blocked by "
            f"[{blocked_by}]"
        )


@dataclass
class IrreducibilityWitness:
    """Everything needed to understand a reducibility failure."""

    cycle: list[ProcessKey]
    cycle_edges: list[tuple[ScheduleEvent, ScheduleEvent]]
    stuck_pairs: list[StuckPair]

    def describe(self) -> str:
        lines = ["schedule is not reducible"]
        if self.cycle:
            names = " -> ".join(
                f"P{pid}" if inc == 0 else f"P{pid}.{inc}"
                for pid, inc in self.cycle
            )
            lines.append(f"  serialization cycle: {names}")
            for first, second in self.cycle_edges:
                lines.append(f"    {first} <_S {second} (conflict)")
        for pair in self.stuck_pairs:
            lines.append(f"  {pair.describe()}")
        return "\n".join(lines)


def explain_irreducibility(
    schedule: ProcessSchedule,
) -> IrreducibilityWitness | None:
    """Witness for a reducibility failure, or ``None`` if reducible."""
    reduction = Reduction.of(schedule)
    cycle_edges_raw = find_cycle({
        event.process: reduction.out.get(event.process, {})
        for event in reduction.survivors.values()
    })
    if cycle_edges_raw is None:
        return None
    conflicts_of = schedule.conflicts_of
    cycle_edges = []
    for source, target in cycle_edges_raw:
        witness = next(
            (
                (first, second)
                for first in reduction.by_process[source].values()
                for second in reduction.by_process[target].values()
                if first.position < second.position
                and first.name in conflicts_of[second.name]
            ),
            None,
        )
        if witness is not None:
            cycle_edges.append(witness)
    return IrreducibilityWitness(
        cycle=[edge[0] for edge in cycle_edges_raw],
        cycle_edges=cycle_edges,
        stuck_pairs=[
            StuckPair(
                regular=regular,
                compensation=compensation,
                blockers=[
                    between
                    for between in reduction.survivors.values()
                    if regular.position < between.position
                    < compensation.position
                    and (
                        between.process == regular.process
                        or between.name in conflicts_of[regular.name]
                    )
                ],
            )
            for regular, compensation in reduction.stuck
        ],
    )


def first_bad_prefix(schedule: ProcessSchedule) -> int | None:
    """Length of the shortest irreducible prefix, or ``None``.

    A dynamic scheduler must keep every prefix reducible (P-RED); the
    returned length pinpoints the first decision that broke it
    (:class:`~repro.theory.criteria.ScheduleMonitor`, one sweep).
    """
    return ScheduleMonitor.of(schedule).first_bad
