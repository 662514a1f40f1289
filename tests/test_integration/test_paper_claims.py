"""The paper's comparative claims as small, deterministic experiments.

These are miniature versions of the benchmark experiments (E1–E6),
asserted as tests so the claims cannot silently regress.  Each uses a
few repetition seeds to smooth single-run noise.
"""

import math

import pytest

from repro.sim.metrics import mean, summarize
from repro.sim.runner import run_and_summarize, run_workload
from repro.sim.workload import WorkloadSpec, build_workload

SEEDS = [1, 2, 3, 4]


def averaged(spec, protocol, field):
    values = []
    for seed in SEEDS:
        workload = build_workload(spec.with_(seed=seed))
        __, metrics = run_and_summarize(workload, protocol, seed=seed)
        values.append(getattr(metrics, field))
    return mean(values)


BASE = WorkloadSpec(
    n_processes=10,
    n_activity_types=12,
    conflict_density=0.35,
    failure_probability=0.05,
    pivot_probability=0.7,
)


class TestE1Concurrency:
    """Ordered sharing admits more concurrency than exclusive locking."""

    def test_process_locking_beats_serial_makespan(self):
        pl = averaged(BASE, "process-locking", "makespan")
        serial = averaged(BASE, "serial", "makespan")
        assert pl < serial

    def test_process_locking_at_least_matches_s2pl(self):
        pl = averaged(BASE, "process-locking", "makespan")
        s2pl = averaged(BASE, "s2pl", "makespan")
        assert pl <= s2pl * 1.10  # within 10% or better

    def test_concurrency_degree_ordering(self):
        pl = averaged(BASE, "process-locking", "mean_concurrency")
        serial = averaged(BASE, "serial", "mean_concurrency")
        assert pl > serial


class TestE2EarlyVerification:
    """Pure OSL's late validation causes violations; PL has none."""

    HOT = BASE.with_(conflict_density=0.6, failure_probability=0.12)

    def test_osl_pure_suffers_unresolvable_violations(self):
        total = sum(
            averaged(self.HOT.with_(seed=s), "osl-pure",
                     "unresolvable_violations")
            for s in SEEDS
        )
        assert total > 0

    def test_process_locking_never_does(self):
        total = sum(
            averaged(self.HOT.with_(seed=s), "process-locking",
                     "unresolvable_violations")
            for s in SEEDS
        )
        assert total == 0


class TestE3ThresholdSpectrum:
    """Wcc* spans the spectrum: lower thresholds -> fewer cascades."""

    EXP = BASE.with_(expensive_fraction=0.3, expensive_cost=40.0,
                     conflict_density=0.5)

    def test_cascade_victims_grow_with_threshold(self):
        low = averaged(self.EXP.with_(wcc_threshold=5.0),
                       "process-locking", "cascade_victims")
        high = averaged(self.EXP.with_(wcc_threshold=math.inf),
                        "process-locking", "cascade_victims")
        assert low < high

    def test_zero_threshold_means_no_cascades(self):
        value = averaged(self.EXP.with_(wcc_threshold=0.0),
                         "process-locking", "cascade_victims")
        assert value == 0


class TestE4CompletingProtection:
    """Cascading aborts never hit completing processes."""

    def test_no_completing_victims_ever(self):
        # The manager would raise ProcessStateError if a completing
        # process were chosen as a cascade victim; a clean run of a
        # high-contention workload is the assertion.
        spec = BASE.with_(conflict_density=0.8,
                          failure_probability=0.15)
        for seed in SEEDS:
            workload = build_workload(spec.with_(seed=seed))
            result = run_workload(
                workload, "process-locking", seed=seed,
            )
            assert result.stats.committed >= 1


class TestE5Liveness:
    """Deadlock freedom and starvation freedom."""

    def test_basic_protocol_zero_deadlock_victims(self):
        spec = BASE.with_(conflict_density=0.9, wcc_threshold=math.inf)
        for seed in SEEDS:
            workload = build_workload(spec.with_(seed=seed))
            result = run_workload(workload, "process-locking-basic",
                                  seed=seed)
            assert result.stats.deadlock_victims == 0

    def test_resubmissions_bounded_in_practice(self):
        spec = BASE.with_(conflict_density=0.9)
        for seed in SEEDS:
            workload = build_workload(spec.with_(seed=seed))
            result = run_workload(workload, "process-locking", seed=seed)
            worst = max(
                record.resubmissions
                for record in result.records.values()
            )
            assert worst < 100


class TestE6ExpensiveProtection:
    """Cost thresholds keep expensive work from being compensated."""

    EXP = BASE.with_(expensive_fraction=0.4, expensive_cost=50.0,
                     conflict_density=0.5, failure_probability=0.04)

    def _cascade_compensated_cost(self, threshold):
        values = []
        for seed in SEEDS:
            workload = build_workload(
                self.EXP.with_(seed=seed, wcc_threshold=threshold)
            )
            result = run_workload(workload, "process-locking", seed=seed)
            values.append(result.stats.compensated_cost_protocol)
        return mean(values)

    def test_threshold_reduces_cascade_compensation_cost(self):
        protected = self._cascade_compensated_cost(threshold=50.0)
        unprotected = self._cascade_compensated_cost(
            threshold=math.inf
        )
        assert protected < unprotected
