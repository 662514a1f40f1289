"""Tests for the lock table's partition by subsystem.

Activities of different subsystems never conflict, so the per-type lock
lists split cleanly by owning subsystem (a "shard" in the metric labels
and the ``wait.edge`` events).  The table keeps no per-shard state: the
per-subsystem counts are read off the per-type lists when asked, and one
full structural audit checks the whole table.  These tests pin the
partition, the derived counts, the audit's corruption detection, the
schedule byte-identity of audited runs and the per-subsystem gauges.
"""

from __future__ import annotations

import pytest

from repro.core.lock_table import LockTable
from repro.core.locks import LockMode
from repro.errors import CommutativityError, ProtocolError
from repro.faults.harness import canonical_trace
from repro.obs import Tracer
from repro.scheduler.manager import ManagerConfig
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload


class FakeProcess:
    """The table only ever reads ``pid`` from a process."""

    def __init__(self, pid: int) -> None:
        self.pid = pid


@pytest.fixture
def table(conflicts):
    return LockTable(conflicts)


class TestShardPartition:
    def test_every_type_owned_by_its_subsystem_shard(
        self, registry, table
    ):
        assert table.locks_by_subsystem() == {"shop": 0, "bank": 0}
        for pid, activity_type in enumerate(registry, start=1):
            table.acquire(FakeProcess(pid), activity_type.name, LockMode.C)
        assert table.locks_by_subsystem() == {
            subsystem: sum(
                1 for t in registry if t.subsystem == subsystem
            )
            for subsystem in ("shop", "bank")
        }

    def test_types_partition_exactly(self, registry, conflicts, table):
        for first in registry:
            for second in registry:
                if first.subsystem != second.subsystem:
                    assert not conflicts.conflict(first.name, second.name)
        with pytest.raises(CommutativityError, match="subsystems"):
            conflicts.declare_conflict("reserve", "charge")
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "charge", LockMode.P)
        assert sum(table.locks_by_subsystem().values()) == table.lock_count

    def test_late_registered_type_gets_a_shard(self, registry, table):
        registry.define_compensatable(
            "restock", "warehouse", cost=1.0, compensation_cost=0.5
        )
        assert table.locks_by_subsystem()["warehouse"] == 0
        table.acquire(FakeProcess(1), "restock", LockMode.C)
        assert table.locks_by_subsystem()["warehouse"] == 1
        table.check_invariants([1])

    def test_unknown_shard_audit_rejected(self, table):
        """The audit takes no shard selection: it is always the whole
        table."""
        with pytest.raises(TypeError, match="shards"):
            table.check_invariants([], shards=["nope"])


class TestShardCounters:
    def test_acquire_release_maintain_counters(self, table):
        p1, p2 = FakeProcess(1), FakeProcess(2)
        table.acquire(p1, "reserve", LockMode.C)
        table.acquire(p1, "charge", LockMode.P)
        table.acquire(p2, "reserve", LockMode.C)
        assert table.locks_by_subsystem() == {"shop": 2, "bank": 1}
        table.check_invariants([1, 2])

        table.release_all(1)
        assert table.locks_by_subsystem() == {"shop": 1, "bank": 0}
        table.check_invariants([2])

    def test_full_audit_accepts_a_one_shot_iterable(self, table):
        """``live_pids`` is consumed once: a generator must be judged
        against the same live set by every check."""
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "charge", LockMode.P)
        table.check_invariants(pid for pid in (1, 2))
        with pytest.raises(ProtocolError, match="terminated"):
            table.check_invariants(pid for pid in (1,))


class TestShardAuditDetection:
    def test_dead_holder_detected(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.check_invariants([1])
        with pytest.raises(ProtocolError, match="terminated"):
            table.check_invariants([])

    def test_missing_blocker_edge_detected(self, table):
        # reserve-reserve conflicts: two holders on the same type give
        # one blocker edge; dropping it from the index must be caught by
        # the naive recompute.
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "reserve", LockMode.C)
        table.check_invariants([1, 2])
        table._blocked_by[2].discard(1)
        with pytest.raises(ProtocolError, match="blocker index"):
            table.check_invariants([1, 2])

    def test_unsorted_positions_detected(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "reserve", LockMode.C)
        table._by_type["reserve"].reverse()
        with pytest.raises(ProtocolError, match="position-sorted"):
            table.check_invariants([1, 2])


class TestAudit:
    def test_audit_preserves_schedule_bytes(self, uid_floor):
        spec = WorkloadSpec(
            n_processes=12,
            n_activity_types=18,
            n_subsystems=3,
            conflict_density=0.5,
            failure_probability=0.05,
            arrival_spacing=0.5,
            seed=11,
        )
        uid_floor.pin()
        audited = run_workload(
            build_workload(spec),
            seed=spec.seed,
            config=ManagerConfig(audit=True),
        )
        uid_floor.repin()
        plain = run_workload(build_workload(spec), seed=spec.seed)
        assert canonical_trace(audited.trace.events) == canonical_trace(
            plain.trace.events
        )


class TestShardObservability:
    def test_per_shard_gauges_and_wait_edge_shards(self, uid_floor):
        spec = WorkloadSpec(
            n_processes=12,
            n_activity_types=18,
            n_subsystems=3,
            conflict_density=0.6,
            arrival_spacing=0.3,
            seed=3,
        )
        uid_floor.pin()
        workload = build_workload(spec)
        tracer = Tracer()
        result = run_workload(workload, seed=spec.seed, tracer=tracer)
        assert result.committed_pids  # the run did something
        subsystems = {
            name.removeprefix("locks.")
            for name in tracer.series.gauges
            if name.startswith("locks.")
        }
        # One gauge per subsystem of the registry, zeros included.
        assert subsystems == {t.subsystem for t in workload.registry}
        assert len(subsystems) == 3
        wait_edges = [
            record
            for record in tracer.records()
            if record["kind"] == "wait.edge"
        ]
        assert wait_edges
        for record in wait_edges:
            if record["request"] == "commit":
                assert record["shard"] is None
            else:
                assert record["shard"] in subsystems
