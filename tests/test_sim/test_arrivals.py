"""Tests for arrival-process generators."""

import pytest

from repro.errors import SchedulerError
from repro.sim.arrivals import poisson_arrivals
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload


class TestGenerators:
    def test_poisson_monotone_and_deterministic(self):
        first = poisson_arrivals(rate=0.5, count=10, seed=4)
        second = poisson_arrivals(rate=0.5, count=10, seed=4)
        assert first == second
        assert all(b > a for a, b in zip(first, first[1:]))

    def test_poisson_rate_scales_spacing(self):
        slow = poisson_arrivals(rate=0.1, count=200, seed=1)
        fast = poisson_arrivals(rate=1.0, count=200, seed=1)
        assert slow[-1] > fast[-1]

    def test_poisson_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(rate=0.0, count=5)


class TestRunnerIntegration:
    def test_arrivals_override(self):
        workload = build_workload(WorkloadSpec(n_processes=3, seed=1))
        arrivals = [0.0, 100.0, 200.0]
        result = run_workload(
            workload, "process-locking", arrivals=arrivals
        )
        assert result.records[2].submitted_at == 100.0
        assert result.makespan >= 200.0

    def test_wrong_length_rejected(self):
        workload = build_workload(WorkloadSpec(n_processes=3, seed=1))
        with pytest.raises(SchedulerError):
            run_workload(workload, "serial", arrivals=[0.0])


class TestOpenSystem:
    """Open-system arrival streams: sustained Poisson arrivals
    (processes landing while earlier ones are still in flight) are the
    regime the service front door submits, so these tests pin
    termination and metric merging under it.
    """

    SPEC = WorkloadSpec(n_processes=12, seed=21, conflict_density=0.4)

    def _run(self):
        workload = build_workload(self.SPEC)
        arrivals = poisson_arrivals(
            rate=0.2, count=len(workload.programs), seed=13
        )
        result = run_workload(
            workload, "process-locking", seed=21, arrivals=arrivals
        )
        return arrivals, result

    def test_terminates_under_sustained_arrivals(self):
        arrivals, result = self._run()
        # Every submission reached a terminal state (quiescence is
        # enforced by run()); the stream really was open-system.
        assert result.stats.submitted == len(arrivals)
        assert result.makespan >= arrivals[-1]
        assert len(result.records) == len(arrivals)
        assert result.stats.committed >= 1

    def test_metrics_merge(self):
        from repro.sim.metrics import aggregate, summarize

        __, result = self._run()
        metrics = summarize("process-locking", result)
        assert metrics.submitted == result.stats.submitted
        assert metrics.committed == result.stats.committed
        rows = aggregate([metrics, metrics])
        assert rows["committed"] == metrics.committed
        assert rows["throughput"] == pytest.approx(metrics.throughput)

    def test_arrival_times_respected(self):
        arrivals, result = self._run()
        for pid, at in enumerate(arrivals, start=1):
            assert result.records[pid].submitted_at == at
