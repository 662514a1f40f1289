"""Process locking: the paper's core contribution (Sections 3 and 4)."""

from repro.core.conformance import (
    CHECKS,
    ConformanceCheck,
    ConformanceReport,
    run_conformance,
)
from repro.core.cost_based import (
    Figure1Step,
    figure1_trace,
    is_pseudo_pivot,
    lemma1_holds,
    wcc_after,
)
from repro.core.deadlock import choose_cycle_victim
from repro.core.decisions import (
    AbortVictims,
    Decision,
    Defer,
    Grant,
)
from repro.core.lock_table import LockTable
from repro.core.locks import LockEntry, LockMode
from repro.core.protocol import ProcessLockManager
from repro.core.rules import HolderPartition, partition_holders

__all__ = [
    "CHECKS",
    "AbortVictims",
    "ConformanceCheck",
    "ConformanceReport",
    "run_conformance",
    "Decision",
    "Defer",
    "Figure1Step",
    "Grant",
    "HolderPartition",
    "LockEntry",
    "LockMode",
    "LockTable",
    "ProcessLockManager",
    "choose_cycle_victim",
    "figure1_trace",
    "is_pseudo_pivot",
    "lemma1_holds",
    "partition_holders",
    "wcc_after",
]
