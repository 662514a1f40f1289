"""The transactional process manager: engine, events, trace, manager."""

from repro.scheduler.engine import SimulationEngine
from repro.scheduler.events import (
    CompensationRun,
    InflightActivity,
    ParkedRequest,
    ProcessRecord,
    RequestKind,
)
from repro.scheduler.manager import (
    ManagerConfig,
    ProcessManager,
    RunResult,
    make_manager,
)
from repro.scheduler.recovery import (
    CrashImage,
    ProcessSnapshot,
    crash,
    recover,
    restore_process,
)
from repro.scheduler.trace import TraceRecorder

__all__ = [
    "CompensationRun",
    "CrashImage",
    "ProcessSnapshot",
    "crash",
    "recover",
    "restore_process",
    "InflightActivity",
    "ManagerConfig",
    "ParkedRequest",
    "ProcessManager",
    "ProcessRecord",
    "RequestKind",
    "RunResult",
    "SimulationEngine",
    "TraceRecorder",
    "make_manager",
]
