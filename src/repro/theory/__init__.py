"""Correctness theory: schedules, reduction, and the RED/CT/P-RC criteria."""

from repro.theory.criteria import (
    RecoverabilityReport,
    RecoverabilityViolation,
    ScheduleMonitor,
    check_process_recoverability,
    has_correct_termination,
    is_prefix_reducible,
    is_process_recoverable,
    is_reducible,
)
from repro.theory.explain import (
    IrreducibilityWitness,
    StuckPair,
    explain_irreducibility,
    first_bad_prefix,
)
from repro.theory.reduction import Reduction, poly_is_reducible
from repro.theory.schedule import (
    EventKind,
    ProcessSchedule,
    ScheduleEvent,
)

__all__ = [
    "EventKind",
    "IrreducibilityWitness",
    "ProcessSchedule",
    "StuckPair",
    "explain_irreducibility",
    "first_bad_prefix",
    "RecoverabilityReport",
    "Reduction",
    "RecoverabilityViolation",
    "ScheduleEvent",
    "ScheduleMonitor",
    "check_process_recoverability",
    "has_correct_termination",
    "is_prefix_reducible",
    "is_process_recoverable",
    "is_reducible",
    "poly_is_reducible",
]
