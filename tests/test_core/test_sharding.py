"""Tests for the lock table's shard map and the sampled per-shard auditor.

Partitioning by subsystem changes how the table is audited and gauged,
never how a lock request is ordered or granted.  These tests pin the
partition itself, the per-shard counters and audits (including
corruption detection), the ``REPRO_AUDIT_EVERY`` sampling knob with its
round-robin shard cursor, and the schedule byte-identity of
sampled-audit runs.
"""

from __future__ import annotations

import pytest

from repro.core.lock_table import LockTable
from repro.core.locks import LockMode
from repro.errors import ProtocolError
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
        assert set(table.shard_names()) == {
            activity_type.subsystem for activity_type in registry
        }
        for activity_type in registry:
            shard = table.shard_of(activity_type.name)
            assert shard.name == activity_type.subsystem
            assert activity_type.name in shard.types

    def test_types_partition_exactly(self, registry, table):
        seen: set[str] = set()
        for shard in table.shards.values():
            assert not (shard.types & seen)  # disjoint
            seen |= shard.types
        assert seen == {
            activity_type.name for activity_type in registry
        }

    def test_late_registered_type_gets_a_shard(self, registry, table):
        registry.define_compensatable(
            "restock", "warehouse", cost=1.0, compensation_cost=0.5
        )
        shard = table.shard_of("restock")
        assert shard.name == "warehouse"
        assert "warehouse" in table.shard_names()

    def test_unknown_shard_audit_rejected(self, table):
        with pytest.raises(ProtocolError, match="unknown lock shard"):
            table.check_invariants([], shards=["nope"])


class TestShardCounters:
    def test_acquire_release_maintain_counters(self, table):
        p1, p2 = FakeProcess(1), FakeProcess(2)
        table.acquire(p1, "reserve", LockMode.C)
        table.acquire(p1, "charge", LockMode.P)
        table.acquire(p2, "reserve", LockMode.C)
        shop = table.shard_of("reserve")
        bank = table.shard_of("charge")
        assert (shop.lock_count, shop.acquires) == (2, 2)
        assert (bank.lock_count, bank.acquires) == (1, 1)
        assert sum(
            shard.lock_count for shard in table.shards.values()
        ) == table.lock_count
        table.check_invariants([1, 2])

        table.release_all(1)
        assert (shop.lock_count, shop.releases) == (1, 1)
        assert (bank.lock_count, bank.releases) == (0, 1)
        table.check_invariants([2])

    def test_full_audit_accepts_a_one_shot_iterable(self, table):
        """``live_pids`` is consumed once: a generator must audit the
        shards against the same live set as the global checks."""
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "charge", LockMode.P)
        table.check_invariants(pid for pid in (1, 2))

    def test_per_shard_audit_checks_only_named_shard(self, table):
        p1 = FakeProcess(1)
        table.acquire(p1, "reserve", LockMode.C)
        table.acquire(p1, "charge", LockMode.C)
        # Corrupt the bank shard's counter: the shop-only audit stays
        # green, the bank audit and the full audit both trip.
        table.shard_of("charge").lock_count += 1
        shop = table.shard_of("reserve").name
        bank = table.shard_of("charge").name
        table.check_invariants([1], shards=[shop])
        with pytest.raises(ProtocolError, match="counter"):
            table.check_invariants([1], shards=[bank])
        with pytest.raises(ProtocolError):
            table.check_invariants([1])


class TestShardAuditDetection:
    def test_dead_holder_detected_shard_locally(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        shard = table.shard_of("reserve").name
        table.check_invariants([1], shards=[shard])
        with pytest.raises(ProtocolError, match="terminated"):
            table.check_invariants([], shards=[shard])

    def test_missing_blocker_edge_detected(self, conflicts, table):
        # reserve-reserve conflicts: two holders on the same type give
        # one blocker edge; dropping it from the global index must be
        # caught by the shard-restricted recompute.
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "reserve", LockMode.C)
        shard = table.shard_of("reserve").name
        table.check_invariants([1, 2], shards=[shard])
        table._blocked_by[2].discard(1)
        with pytest.raises(ProtocolError, match="blocker edge"):
            table.check_invariants([1, 2], shards=[shard])

    def test_unsorted_positions_detected(self, table):
        table.acquire(FakeProcess(1), "reserve", LockMode.C)
        table.acquire(FakeProcess(2), "reserve", LockMode.C)
        table._by_type["reserve"].reverse()
        with pytest.raises(ProtocolError, match="position-sorted"):
            table.check_invariants(
                [1, 2], shards=[table.shard_of("reserve").name]
            )


class TestAuditSamplingKnob:
    def test_env_knob_sets_audit_every(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT_EVERY", "4")
        assert ManagerConfig().audit_every == 4
        monkeypatch.setenv("REPRO_AUDIT_EVERY", "0")
        assert ManagerConfig().audit_every == 1  # clamped
        monkeypatch.delenv("REPRO_AUDIT_EVERY")
        assert ManagerConfig().audit_every == 1

    def test_sampled_audit_preserves_schedule_bytes(self, uid_floor):
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
        dense = run_workload(
            build_workload(spec),
            seed=spec.seed,
            config=ManagerConfig(audit=True, audit_every=1),
        )
        uid_floor.repin()
        sampled = run_workload(
            build_workload(spec),
            seed=spec.seed,
            config=ManagerConfig(audit=True, audit_every=3),
        )
        assert canonical_trace(dense.trace.events) == canonical_trace(
            sampled.trace.events
        )

    def test_round_robin_covers_every_shard(self, uid_floor):
        spec = WorkloadSpec(
            n_processes=10,
            n_activity_types=18,
            n_subsystems=3,
            conflict_density=0.5,
            arrival_spacing=0.5,
            seed=5,
        )
        audited: list[str] = []

        uid_floor.pin()
        workload = build_workload(spec)
        from repro.scheduler.manager import ProcessManager
        from repro.sim.runner import make_protocol

        protocol = make_protocol("process-locking", workload)
        original_audit = protocol.audit

        def spying_audit(shards=None):
            if shards is not None:
                audited.extend(shards)
            return original_audit(shards=shards)

        protocol.audit = spying_audit
        manager = ProcessManager(
            protocol,
            subsystems=workload.make_subsystems(),
            config=ManagerConfig(audit=True, audit_every=2),
            seed=spec.seed,
        )
        for index, program in enumerate(workload.programs):
            manager.submit(program, at=workload.arrival_time(index))
        manager.run()
        assert set(audited) == set(protocol.table.shard_names())


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
        tracer = Tracer()
        result = run_workload(
            build_workload(spec), seed=spec.seed, tracer=tracer
        )
        assert result.committed_pids  # the run did something
        shard_names = {
            name
            for name in tracer.series.gauges
            if name.startswith("locks.")
        }
        assert shard_names  # at least one shard held a lock
        subsystems = {
            name.removeprefix("locks.") for name in shard_names
        }
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
