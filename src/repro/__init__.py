"""Process Locking — a reproduction of Schuldt, PODS 2001.

A dynamic scheduling protocol for the correct concurrent and
fault-tolerant execution of *transactional processes*: C/P locks at
activity-type granularity with ordered sharing and timestamp-ordered
verification, plus the cost-based extension that spans the spectrum
between ACA and P-RC.

Quickstart::

    from repro import (
        ActivityRegistry, ConflictMatrix, ProgramBuilder,
        ProcessLockManager, ProcessManager,
    )

    registry = ActivityRegistry()
    registry.define_compensatable("reserve", "shop", cost=2.0,
                                  compensation_cost=1.0)
    registry.define_pivot("charge", "bank", cost=1.0)
    registry.define_retriable("ship", "shop", cost=1.0)

    conflicts = ConflictMatrix(registry)
    conflicts.declare_conflict("reserve", "reserve")
    conflicts.close_perfect()

    program = (
        ProgramBuilder("order", registry)
        .step("reserve")
        .pivot("charge")
        .alternatives(lambda b: b.step("ship"))
        .build()
    )

    protocol = ProcessLockManager(registry, conflicts)
    manager = ProcessManager(protocol)
    manager.submit(program)
    manager.submit(program)
    result = manager.run()
    assert result.stats.committed == 2
"""

from repro.activities import (
    INFINITE_COST,
    Activity,
    ActivityRegistry,
    ActivityType,
    ConflictMatrix,
    TerminationClass,
    derive_from_read_write_sets,
)
from repro.baselines import (
    CascadeAvoidingScheduler,
    PureOrderedSharedLocking,
    SerialScheduler,
    StrictTwoPhaseLocking,
)
from repro.core import (
    LockMode,
    ProcessLockManager,
    figure1_trace,
)
from repro.process import (
    Process,
    ProcessProgram,
    ProcessState,
    ProgramBuilder,
)
from repro.scheduler import ManagerConfig, ProcessManager, RunResult
from repro.sim import (
    Workload,
    WorkloadSpec,
    build_workload,
    compare_protocols,
    run_workload,
    schedule_of,
)
from repro.theory import (
    ProcessSchedule,
    has_correct_termination,
    is_prefix_reducible,
    is_process_recoverable,
    is_reducible,
)

__version__ = "1.0.0"

__all__ = [
    "INFINITE_COST",
    "Activity",
    "ActivityRegistry",
    "ActivityType",
    "CascadeAvoidingScheduler",
    "ConflictMatrix",
    "LockMode",
    "ManagerConfig",
    "Process",
    "ProcessLockManager",
    "ProcessManager",
    "ProcessProgram",
    "ProcessSchedule",
    "ProcessState",
    "ProgramBuilder",
    "PureOrderedSharedLocking",
    "RunResult",
    "SerialScheduler",
    "StrictTwoPhaseLocking",
    "TerminationClass",
    "Workload",
    "WorkloadSpec",
    "build_workload",
    "compare_protocols",
    "derive_from_read_write_sets",
    "figure1_trace",
    "has_correct_termination",
    "is_prefix_reducible",
    "is_process_recoverable",
    "is_reducible",
    "run_workload",
    "schedule_of",
    "__version__",
]
