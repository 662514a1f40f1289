"""Byte-identity properties of the parallel execution mode.

The tentpole contract: at the same seed, every (workers, batch-k)
variant of the thread-per-shard manager emits a schedule byte-identical
to the sequential manager's.  These tests sweep small contended
workloads across seeds, worker counts, and batch depths; the
``workers=2 batch_k=2`` digest in
``tests/test_scheduler/test_schedule_golden.py`` pins one larger point.
"""

from __future__ import annotations

import pytest

from repro.parallel import ParallelProcessManager
from repro.scheduler.manager import (
    ManagerConfig,
    ProcessManager,
    make_manager,
)
from repro.sim.runner import make_protocol, run_workload
from repro.sim.workload import build_workload

from .conftest import canonical_trace

SEEDS = (0, 3, 11)
WORKER_COUNTS = (1, 2, 4)
BATCH_KS = (1, 2, 4)


def _run(workload, seed, workers, batch_k, **extra):
    return run_workload(
        workload,
        "process-locking",
        seed=seed,
        config=ManagerConfig(workers=workers, batch_k=batch_k, **extra),
    )


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_worker_and_batch_grid(self, seed, small_spec, uid_floor):
        """Sequential vs the full workers × batch-k grid, per seed."""
        spec = small_spec(seed=seed)
        uid_floor.pin()
        reference = canonical_trace(
            _run(build_workload(spec), seed, workers=0, batch_k=1)
        )
        for workers in WORKER_COUNTS:
            for batch_k in BATCH_KS:
                uid_floor.repin()
                result = _run(
                    build_workload(spec), seed, workers, batch_k
                )
                assert canonical_trace(result) == reference, (
                    f"schedule diverged at seed={seed} "
                    f"workers={workers} batch_k={batch_k}"
                )

    def test_batch_equals_one_by_one_acquisition(
        self, small_spec, uid_floor
    ):
        """batch_k > 1 acquires exactly what per-lock requests would.

        Same worker count on both sides, so the only varying axis is
        the batch prefix replay vs per-activity requests.
        """
        spec = small_spec(seed=5)
        uid_floor.pin()
        one_by_one = _run(build_workload(spec), 5, workers=2, batch_k=1)
        uid_floor.repin()
        batched = _run(build_workload(spec), 5, workers=2, batch_k=4)
        assert canonical_trace(batched) == canonical_trace(one_by_one)
        assert batched.stats.committed == one_by_one.stats.committed
        assert batched.makespan == one_by_one.makespan

    def test_fanout_dispatch_is_byte_identical(
        self, small_spec, uid_floor, monkeypatch
    ):
        """With worker fan-out forced on, probes run on shard workers;
        the coordinator still applies grants in program order."""
        spec = small_spec(seed=2)
        uid_floor.pin()
        reference = canonical_trace(
            _run(build_workload(spec), 2, workers=0, batch_k=1)
        )
        monkeypatch.setenv("REPRO_PARALLEL_FANOUT", "1")
        uid_floor.repin()
        fanned = _run(build_workload(spec), 2, workers=4, batch_k=4)
        assert canonical_trace(fanned) == reference

    def test_cost_based_pressure_grid(self, small_spec, uid_floor):
        """Wcc-capped programs exercise the misprediction fallback: the
        static prefix prediction must stop at the threshold exactly
        where sequential classification does."""
        spec = small_spec(seed=9).with_(
            wcc_threshold=8.0, parallel_probability=0.3
        )
        uid_floor.pin()
        reference = canonical_trace(
            _run(build_workload(spec), 9, workers=0, batch_k=1)
        )
        for batch_k in BATCH_KS:
            uid_floor.repin()
            result = _run(build_workload(spec), 9, workers=4, batch_k=batch_k)
            assert canonical_trace(result) == reference


class TestMakeManagerDispatch:
    def test_zero_workers_builds_the_sequential_manager(self, small_spec):
        workload = build_workload(small_spec())
        protocol = make_protocol("process-locking", workload)
        manager = make_manager(
            protocol,
            subsystems=workload.make_subsystems(),
            config=ManagerConfig(workers=0),
        )
        assert type(manager) is ProcessManager

    def test_positive_workers_builds_the_parallel_manager(
        self, small_spec
    ):
        workload = build_workload(small_spec())
        protocol = make_protocol("process-locking", workload)
        manager = make_manager(
            protocol,
            subsystems=workload.make_subsystems(),
            config=ManagerConfig(workers=2),
        )
        assert isinstance(manager, ParallelProcessManager)
        manager.close()

    def test_repro_workers_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_BATCH_K", "4")
        config = ManagerConfig()
        assert config.workers == 2
        assert config.batch_k == 4
        # Explicit arguments always beat the env default — the
        # benchmarks rely on workers=0 staying sequential under a
        # REPRO_WORKERS matrix entry.
        assert ManagerConfig(workers=0, batch_k=1).workers == 0
        assert ManagerConfig(workers=0, batch_k=1).batch_k == 1

    def test_worker_count_caps_at_shard_count(self, small_spec):
        workload = build_workload(small_spec())  # 4 subsystems
        protocol = make_protocol("process-locking", workload)
        manager = make_manager(
            protocol,
            subsystems=workload.make_subsystems(),
            config=ManagerConfig(workers=64),
        )
        try:
            assert manager._executor.workers == 4
            assignment = manager._assignment
            assert set(assignment.values()) <= set(range(4))
        finally:
            manager.close()
