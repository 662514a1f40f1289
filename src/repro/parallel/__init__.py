"""Parallel execution mode (thread-per-shard workers).

The :class:`ParallelProcessManager` runs one dedicated worker per group
of lock shards and fans read-only probe work out to them, while a
deterministic commit-ordering stage on the coordinator applies every
grant in program order — so the emitted schedule is byte-identical to
the sequential :class:`~repro.scheduler.manager.ProcessManager` at the
same seed.  See ``docs/performance.md`` §6 for the determinism argument
and the batch-acquisition semantics.
"""

from repro.parallel.executor import ShardExecutor
from repro.parallel.manager import ParallelProcessManager

__all__ = ["ParallelProcessManager", "ShardExecutor"]
