"""What a served process leaves on the heap once it is answered.

A long-running ``repro serve`` must not keep per-operation state: a
subsystem validates each commit against per-key counters instead of
logging every read and write, and a durable service's trace events
leave memory at the snapshot that stores them.  What is still retained
per process (its record, the flight ring's share) is counted here
under ``tracemalloc``, on the benchmark's ``grounded_closed`` catalog,
the one workload whose subsystem transactions run.  About 300 B per
process is retained (350 while its record kept six per-pid counts the
event fold keeps); keeping every trace event in memory again would
add about 1 kB, and logging every subsystem operation another 1 kB.
"""

from __future__ import annotations

import gc
import tracemalloc
from concurrent.futures import Future

from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec

#: The ``grounded_closed`` catalog of ``bench/workloads.py``.
GROUNDED_CLOSED = WorkloadSpec(
    n_processes=8,
    n_activity_types=12,
    conflict_density=0.3,
    failure_probability=0.04,
    seed=3,
    grounded=True,
)

#: Bytes still held per answered process after the rounds below.
BOUND = 1_000


def _serve(service: ProcessLockingService, requests: int) -> None:
    """``requests`` single-process ``wait=true`` submits, one per drain
    on this thread, as the closed loop sends them."""
    for index in range(requests):
        fut: Future = Future()
        service._apply(
            {"cmd": "submit", "program": index % 8, "wait": True}, fut
        )
        service.manager.engine.run(
            max_events=service.manager.config.max_events
        )
        service._post_drain()
        assert fut.result(timeout=0)["outcomes"]


def test_a_served_process_retains_no_per_operation_state(tmp_path):
    service = ProcessLockingService(
        ServiceConfig(
            spec=GROUNDED_CLOSED,
            seed=3,
            store="log",
            store_path=str(tmp_path),
            store_fsync="batch",
        )
    )
    tracemalloc.start()
    try:
        # One snapshot cadence first: caches, interned names and the
        # first store document are not per-process state.
        _serve(service, 48)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _serve(service, 300)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        service.store.close()
    assert service.manager.subsystems is not None
    assert sum(sub.committed_count for sub in service.manager.subsystems)
    assert retained / 300 <= BOUND, f"{retained / 300:.0f} B per process"
