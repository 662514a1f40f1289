"""Tracing must never perturb a run.

Every run counts its events with the always-on fold; a run that also
hands the manager a recording :class:`Tracer` must produce a
byte-identical schedule and identical :class:`RunMetrics` — the tracer
observes the simulation, it never participates in it.  These tests pin
that for plain runs, cost-based runs, and full chaos runs (fault
injector with manager crashes), using the shared ``uid_floor`` pairing
fixture.
"""

from repro.faults.harness import canonical_trace
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivityFailures,
    FaultPlan,
    ManagerCrash,
    SubsystemOutage,
    compile_plan,
)
from repro.obs import MetricsTracer, Tracer
from repro.sim.metrics import summarize, summarize_chaos
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload


def paired_runs(spec, uid_floor, protocol="process-locking"):
    """Run ``spec`` with the fold alone, then with a recording tracer
    too, from the same uid floor."""
    uid_floor.pin()
    plain = run_workload(build_workload(spec), protocol, seed=spec.seed)
    uid_floor.repin()
    tracer = Tracer()
    traced = run_workload(
        build_workload(spec), protocol, seed=spec.seed, tracer=tracer
    )
    return plain, traced, tracer


class TestRunIdentity:
    def test_schedule_and_metrics_identical(self, uid_floor):
        for seed in (0, 7):
            spec = WorkloadSpec(
                n_processes=10,
                conflict_density=0.5,
                failure_probability=0.05,
                arrival_spacing=0.5,
                seed=seed,
            )
            plain, traced, tracer = paired_runs(spec, uid_floor)
            assert canonical_trace(plain.trace.events) == canonical_trace(
                traced.trace.events
            )
            assert summarize("pl", plain) == summarize("pl", traced)
            assert len(tracer) > 0

    def test_identity_under_cost_based_pressure(self, uid_floor):
        spec = WorkloadSpec(
            n_processes=8,
            conflict_density=0.5,
            wcc_threshold=8.0,
            parallel_probability=0.3,
            seed=3,
        )
        plain, traced, __ = paired_runs(spec, uid_floor)
        assert canonical_trace(plain.trace.events) == canonical_trace(
            traced.trace.events
        )

    def test_identity_for_baselines(self, uid_floor):
        spec = WorkloadSpec(
            n_processes=6, conflict_density=0.4, seed=11
        )
        for protocol in ("s2pl", "serial"):
            plain, traced, tracer = paired_runs(
                spec, uid_floor, protocol
            )
            assert canonical_trace(
                plain.trace.events
            ) == canonical_trace(traced.trace.events)
            assert len(tracer) > 0

    def test_the_default_tracer_is_the_counting_fold(self, uid_floor):
        spec = WorkloadSpec(n_processes=5, seed=2)
        uid_floor.pin()
        default = run_workload(build_workload(spec), seed=2)
        uid_floor.repin()
        fold = MetricsTracer()
        explicit = run_workload(build_workload(spec), seed=2, tracer=fold)
        assert canonical_trace(default.trace.events) == canonical_trace(
            explicit.trace.events
        )
        assert explicit.stats is fold.metrics
        assert summarize("pl", default) == summarize("pl", explicit)


CHAOS_PLAN = FaultPlan(
    name="obs-chaos",
    failures=ActivityFailures(rate_scale=5.0),
    outages=(
        SubsystemOutage(subsystem="sub0", at_event=15, duration=3.0),
    ),
    manager_crashes=(ManagerCrash(at_event=25),),
)
CHAOS_SPEC = WorkloadSpec(n_processes=6, grounded=True, seed=2)


def run_chaos_pair(uid_floor, seed=11):
    uid_floor.pin()
    plain = FaultInjector(
        build_workload(CHAOS_SPEC),
        "process-locking",
        compile_plan(CHAOS_PLAN, seed),
        seed=seed,
    ).run()
    uid_floor.repin()
    tracer = Tracer()
    traced = FaultInjector(
        build_workload(CHAOS_SPEC),
        "process-locking",
        compile_plan(CHAOS_PLAN, seed),
        seed=seed,
        tracer=tracer,
    ).run()
    return plain, traced, tracer


class TestChaosIdentity:
    def test_chaos_run_identical_under_tracing(self, uid_floor):
        plain, traced, tracer = run_chaos_pair(uid_floor)
        assert canonical_trace(
            plain.result.trace.events
        ) == canonical_trace(traced.result.trace.events)
        assert summarize_chaos("pl", plain) == summarize_chaos(
            "pl", traced
        )
        assert plain.incarnations == traced.incarnations

    def test_stamps_stay_monotone_across_manager_crash(self, uid_floor):
        __, traced, tracer = run_chaos_pair(uid_floor)
        assert traced.incarnations > 1, "plan must crash the manager"
        records = tracer.records()
        times = [r["t"] for r in records]
        assert times == sorted(times)
        channels = {
            r["channel"] for r in records if r["kind"] == "fault.inject"
        }
        assert {"manager-crash", "manager-recover"} <= channels
        # The fold's crash offset: the summed makespan runs past the
        # last incarnation's.
        assert traced.makespan > traced.result.makespan
