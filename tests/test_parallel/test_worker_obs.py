"""Worker-aware observability: Perfetto shard-worker tracks and the
``repro explain`` ``[worker N]`` annotation."""

from __future__ import annotations

import pytest

from repro.obs import Tracer, perfetto_trace
from repro.obs.explain import explain_process
from repro.obs.export import _WORKER_TRACK_PID
from repro.scheduler.manager import ManagerConfig
from repro.sim.runner import run_workload
from repro.sim.workload import build_workload


@pytest.fixture
def traced(small_spec):
    def run(workers: int):
        tracer = Tracer()
        run_workload(
            build_workload(small_spec(seed=7)),
            "process-locking",
            seed=7,
            config=ManagerConfig(workers=workers, batch_k=2),
            tracer=tracer,
        )
        return tracer.records()

    return run


class TestPerfettoWorkerTracks:
    def test_parallel_run_grows_worker_thread_tracks(self, traced):
        trace = perfetto_trace(traced(workers=2))
        events = trace["traceEvents"]
        # Still a valid Perfetto stream.
        assert {e["ph"] for e in events} <= {"M", "X", "i", "C"}
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "shard workers" in names
        workers_named = {
            name for name in names if name.startswith("worker-")
        }
        assert workers_named  # at least one worker track materialized
        # Mirrored spans live on the synthetic worker pid, one tid per
        # worker, and every mirrored span names a real activity span.
        mirrored = [
            e
            for e in events
            if e["ph"] == "X" and e["pid"] == _WORKER_TRACK_PID
        ]
        assert mirrored
        assert {f"worker-{e['tid']}" for e in mirrored} <= workers_named
        for span in mirrored:
            assert span["args"]["worker"] == span["tid"]

    def test_sequential_run_has_no_worker_tracks(self, traced):
        trace = perfetto_trace(traced(workers=0))
        events = trace["traceEvents"]
        assert not any(
            e.get("pid") == _WORKER_TRACK_PID for e in events
        )
        starts = [
            r for r in traced(workers=0) if r["kind"] == "activity.start"
        ]
        assert starts
        assert all(r.get("worker") is None for r in starts)

    def test_parallel_start_events_carry_worker_ids(self, traced):
        starts = [
            r for r in traced(workers=2) if r["kind"] == "activity.start"
        ]
        assert starts
        workers = {r.get("worker") for r in starts}
        assert None not in workers
        assert workers <= {0, 1}


class TestExplainWorkerTag:
    def test_parked_lines_name_the_owning_worker(self, traced):
        records = traced(workers=2)
        parked_waiters = [
            r["waiter"]
            for r in records
            if r["kind"] == "wait.edge"
            and r["op"] == "insert"
            and r.get("worker") is not None
            # a deferred request: a cascade requester's park has no
            # DEFERRED line to carry the tag
            and r["reason"] != "awaiting-cascade"
        ]
        assert parked_waiters, "workload produced no contended parks"
        text = explain_process(records, parked_waiters[0])
        assert "[worker " in text

    def test_sequential_explain_never_tags_workers(self, traced):
        records = traced(workers=0)
        waiters = {
            r["waiter"] for r in records if r["kind"] == "wait.edge"
        }
        assert waiters, "workload produced no contended parks"
        for waiter in waiters:
            assert "[worker " not in explain_process(records, waiter)
