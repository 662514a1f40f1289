"""Trace equivalence: the indexed hot path vs the naive recompute path.

The scheduling hot path is served by incremental structures (see
``docs/performance.md``): the conflict adjacency index, the lock table's
blocker index, the manager's wake-up index and its deadlock check's walk
from the parking pid.  This file keeps the **naive path** — the exact
pre-index formulations from ``tests/test_core/reference.py``: O(pairs)
conflict scans, O(locks²) commit-blocker re-derivation, an unguarded
per-park cycle search and the O(parked²) parked-list fixpoint poll —
runnable as drop-in subclasses, and asserts that fixed-seed runs under
``process-locking`` produce byte-identical schedules on both paths.
Indexing is a pure performance change; what it buys is measured by the
repository benchmark (``bench/README.md``), not here.
"""

from __future__ import annotations

from repro.core.lock_table import LockTable
from repro.core.locks import LockEntry, LockMode
from repro.errors import ProtocolError
from repro.faults.harness import canonical_trace
from repro.scheduler.manager import ManagerConfig, ProcessManager
from repro.sim.runner import make_protocol, run_workload
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_core.reference import (
    naive_commit_blockers,
    naive_conflicting_locks,
    naive_find_wait_cycle,
)


class NaiveLockTable(LockTable):
    """Lock table with the original recompute-from-scratch queries.

    ``acquire``/``release_all`` skip all index maintenance, so a stale
    index cannot leak into the naive answers.
    """

    def acquire(self, process, type_name, mode, activity_uid=None):
        self._position += 1
        entry = LockEntry(
            process=process,
            type_name=type_name,
            mode=mode,
            position=self._position,
            activity_uid=activity_uid,
        )
        self._by_type.setdefault(type_name, []).append(entry)
        self._by_pid.setdefault(process.pid, []).append(entry)
        return entry

    def release_all(self, pid):
        released = self._by_pid.pop(pid, [])
        for entry in released:
            try:
                self._by_type[entry.type_name].remove(entry)
            except (KeyError, ValueError):  # pragma: no cover
                raise ProtocolError(
                    f"lock table corruption while releasing {entry}"
                ) from None
            if not self._by_type[entry.type_name]:
                del self._by_type[entry.type_name]
        return released

    def conflicting_locks(self, type_name, exclude_pid=None):
        return naive_conflicting_locks(self, type_name, exclude_pid)

    def commit_blockers(self, process):
        return naive_commit_blockers(self, process)

    def on_hold(self, process):
        return bool(self.commit_blockers(process))

    def c_locks_of(self, pid):
        return tuple(
            entry
            for entry in self._by_pid.get(pid, ())
            if entry.mode is LockMode.C
        )

    def p_lock_holders(self):
        return {
            pid
            for pid, entries in self._by_pid.items()
            if any(e.mode is LockMode.P for e in entries)
        }


class NaiveProcessManager(ProcessManager):
    """Manager with the original parked-list fixpoint poll and the
    original unguarded per-park deadlock search."""

    def _resolve_wait_cycles(self, waiter):
        cycle = naive_find_wait_cycle(self.parking.wait_edges())
        if cycle is None:
            return
        self._act_on_wait_cycle(cycle)

    def _retry_parked(self, dead_pid):
        progress = True
        while progress:
            progress = False
            live = set(self._processes)
            for request in list(self.parking):
                if request.wait_for & live == request.wait_for:
                    continue  # nothing it waited for has terminated
                own = self.parking.of(request.process.pid)
                if not any(parked is request for parked in own):
                    continue
                self._unpark(request)
                if request.process.state.is_terminal:
                    continue
                self._apply_decision(request)
                progress = True


def run_naive_workload(workload, protocol_name, seed, config):
    """``run_workload`` but through the naive table and manager."""
    protocol = make_protocol(protocol_name, workload)
    protocol.table = NaiveLockTable(workload.conflicts)
    manager = NaiveProcessManager(
        protocol,
        subsystems=workload.make_subsystems(),
        config=config,
        seed=seed,
    )
    for index, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(index))
    return manager.run()


def _spec(n_processes, density, spacing, seed) -> WorkloadSpec:
    return WorkloadSpec(
        n_processes=n_processes,
        n_activity_types=24,
        n_subsystems=3,
        conflict_density=density,
        arrival_spacing=spacing,
        failure_probability=0.02,
        seed=seed,
    )


def _paired_runs(uid_floor, spec, seed):
    """``(indexed, naive)`` results of one spec from the same uid floor.

    The shared ``uid_floor`` fixture (tests/conftest.py) restarts the
    uid/lock-id counters for the second run, which is what makes the
    pair byte-comparable.
    """
    config = ManagerConfig()
    uid_floor.pin()
    indexed = run_workload(
        build_workload(spec), "process-locking", seed=seed, config=config
    )
    uid_floor.repin()
    naive = run_naive_workload(
        build_workload(spec), "process-locking", seed=seed, config=config
    )
    return indexed, naive


class TestTraceEquivalence:
    """Indexing is a pure perf change: schedules are byte-identical.

    Both cases run at the default ``max_resubmissions`` (500): the most
    resubmitted pid reaches 172 (seed 42) and 159 (cost-based case).
    """

    def test_fixed_seed_schedules_identical(self, uid_floor):
        for seed in (0, 7, 42):
            indexed, naive = _paired_runs(
                uid_floor, _spec(30, 0.4, 0.5, seed), seed
            )
            assert canonical_trace(indexed.trace.events) == canonical_trace(
                naive.trace.events
            )
            assert indexed.makespan == naive.makespan
            assert indexed.stats.committed == naive.stats.committed

    def test_equivalence_under_cost_based_pressure(self, uid_floor):
        spec = _spec(20, 0.5, 0.3, 3).with_(
            wcc_threshold=8.0, parallel_probability=0.3
        )
        indexed, naive = _paired_runs(uid_floor, spec, 3)
        assert canonical_trace(indexed.trace.events) == canonical_trace(
            naive.trace.events
        )
