"""Tests for the lock table's partition by subsystem.

Activities of different subsystems never conflict, so the per-type lock
lists split cleanly by owning subsystem (a "shard" in the metric labels
and the ``lock.defer`` / ``lock.cascade`` events).  The table counts
its live locks per subsystem on acquire and release, and the
whole-table oracle (``full_audit``) checks those counts against every
subsystem's lists at once.  These tests pin the partition, the counts,
the oracle's corruption detection and the per-subsystem gauges.
"""

from __future__ import annotations

import pytest

from repro.core.lock_table import LockTable
from repro.core.locks import LockMode
from repro.errors import CommutativityError, ProtocolError
from repro.obs import Tracer
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_core.reference import full_audit


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

    def test_late_type_is_refused_before_any_change(self, registry, table):
        """CON is compiled once: a type registered after the table took
        the plane raises at its first lock request, and the table is
        left as it was."""
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        registry.define_compensatable(
            "restock", "warehouse", cost=1.0, compensation_cost=0.5
        )
        before = (
            table.locks_of(1),
            table.locks_by_subsystem(),
            table._live_mask,
            dict(table._pid_type_masks),
            table._position,
        )
        with pytest.raises(CommutativityError, match="'restock'"):
            table.acquire(FakeProcess(2), "restock", LockMode.C)
        assert (
            table.locks_of(1),
            table.locks_by_subsystem(),
            table._live_mask,
            dict(table._pid_type_masks),
            table._position,
        ) == before
        assert table.holders() == {1}
        assert "warehouse" not in table.locks_by_subsystem()
        full_audit(table, [1])


class TestShardCounters:
    def test_acquire_release_maintain_counters(self, table):
        p1, p2 = FakeProcess(1), FakeProcess(2)
        table.acquire(p1, "reserve", LockMode.C)
        table.acquire(p1, "charge", LockMode.P)
        table.acquire(p2, "reserve", LockMode.C)
        assert table.locks_by_subsystem() == {"shop": 2, "bank": 1}
        full_audit(table, [1, 2])

        table.release_all(1)
        assert table.locks_by_subsystem() == {"shop": 1, "bank": 0}
        full_audit(table, [2])

    def test_full_audit_accepts_a_one_shot_iterable(self, table):
        """``live_pids`` is consumed once: a generator must be judged
        against the same live set by every check."""
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "charge", LockMode.P)
        full_audit(table, (pid for pid in (1, 2)))
        with pytest.raises(ProtocolError, match="terminated"):
            full_audit(table, (pid for pid in (1,)))


class TestShardAuditDetection:
    def test_dead_holder_detected(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        full_audit(table, [1])
        with pytest.raises(ProtocolError, match="terminated"):
            full_audit(table, [])

    def test_missing_blocker_edge_detected(self, table):
        # reserve-reserve conflicts: two holders on the same type give
        # one blocker edge; dropping it from the index must be caught by
        # the naive recompute.
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "reserve", LockMode.C)
        full_audit(table, [1, 2])
        table._blocked_by[2].discard(1)
        with pytest.raises(ProtocolError, match="blocker index"):
            full_audit(table, [1, 2])

    def test_a_drifted_lock_count_is_detected(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "charge", LockMode.P)
        table._by_subsystem["bank"] += 1
        with pytest.raises(ProtocolError, match="per-subsystem"):
            full_audit(table, [1, 2])
        # The release that empties the table checks its own counts.
        table.release_all(1)
        with pytest.raises(ProtocolError, match="no lock is held"):
            table.release_all(2)

    def test_unsorted_positions_detected(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "reserve", LockMode.C)
        table._by_type["reserve"].reverse()
        with pytest.raises(ProtocolError, match="position-sorted"):
            full_audit(table, [1, 2])


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
        assert result.stats.committed  # the run did something
        subsystems = {
            name.removeprefix("locks.")
            for name in tracer.series.gauges
            if name.startswith("locks.")
        }
        # One gauge per subsystem of the registry, zeros included.
        assert subsystems == {t.subsystem for t in workload.registry}
        assert len(subsystems) == 3
        parks = [
            record
            for record in tracer.records()
            if record["kind"] in ("lock.defer", "lock.cascade")
        ]
        assert {record["kind"] for record in parks} == {
            "lock.defer", "lock.cascade"
        }
        for record in parks:
            if record["request"] == "commit":
                assert record["shard"] is None
            else:
                assert record["shard"] in subsystems
