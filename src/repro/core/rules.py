"""Shared helpers for evaluating the six process-locking rules.

The protocol's rules all start the same way: collect the live locks held
by *other* processes on activity types conflicting with the request and
partition the holders by age (process timestamp), mode, and state.
:func:`partition_holders` performs that triage; the rule methods on
:class:`~repro.core.protocol.ProcessLockManager` turn a partition into a
decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.locks import LockEntry, LockMode
from repro.process.instance import Process
from repro.process.state import ProcessState


@dataclass(slots=True)
class HolderPartition:
    """Conflicting lock holders, split the way the rules need them.

    All sets contain pids.  A process appears in several buckets when it
    holds several relevant locks (e.g. both a C and a P lock).
    """

    older_c: set[int] = field(default_factory=set)
    older_p: set[int] = field(default_factory=set)
    younger_running_c: set[int] = field(default_factory=set)
    younger_running_p: set[int] = field(default_factory=set)
    younger_completing: set[int] = field(default_factory=set)
    aborting: set[int] = field(default_factory=set)
    older_running: set[int] = field(default_factory=set)
    older_running_c: set[int] = field(default_factory=set)

    @property
    def empty(self) -> bool:
        return not (
            self.older_c
            or self.older_p
            or self.younger_running_c
            or self.younger_running_p
            or self.younger_completing
            or self.aborting
        )


def partition_holders(
    requester: Process, conflicting: list[LockEntry]
) -> HolderPartition:
    """Triage conflicting lock entries relative to ``requester``.

    ``conflicting`` must already exclude the requester's own locks.
    Aborting holders land in :attr:`HolderPartition.aborting` regardless
    of age (they cannot be aborted again; requests wait for them).
    Completing holders land in :attr:`HolderPartition.younger_completing`
    when younger; an *older* completing holder is classified by its lock
    mode like any older holder (sharing behind it is safe — it terminates
    without compensating).
    """
    partition = HolderPartition()
    if not conflicting:
        return partition
    requester_ts = requester.timestamp
    aborting_state = ProcessState.ABORTING
    running_state = ProcessState.RUNNING
    completing_state = ProcessState.COMPLETING
    mode_c = LockMode.C
    aborting_add = partition.aborting.add
    older_running_add = partition.older_running.add
    older_running_c_add = partition.older_running_c.add
    older_c_add = partition.older_c.add
    older_p_add = partition.older_p.add
    younger_completing_add = partition.younger_completing.add
    younger_running_c_add = partition.younger_running_c.add
    younger_running_p_add = partition.younger_running_p.add
    for entry in conflicting:
        holder = entry.process
        state = holder.state
        pid = holder.pid
        if state is aborting_state:
            aborting_add(pid)
            continue
        is_c = entry.mode is mode_c
        if holder.timestamp < requester_ts:
            if state is running_state:
                older_running_add(pid)
                if is_c:
                    older_running_c_add(pid)
            if is_c:
                older_c_add(pid)
            else:
                older_p_add(pid)
        else:
            if state is completing_state:
                younger_completing_add(pid)
            elif is_c:
                younger_running_c_add(pid)
            else:
                younger_running_p_add(pid)
    return partition
