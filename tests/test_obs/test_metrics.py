"""Metrics-plane tests: registry, exposition, parser, the fold.

The fold (:class:`~repro.obs.metrics.EventMetrics`) is every manager's
``stats``; what it must get right on its own is that each pid's fate
is counted once, under the outcome the manager decided, when one
outcome is implied by two events (a cancel, a starvation).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    EventMetrics,
    MetricsRegistry,
    MetricsTracer,
    Tracer,
    histogram_quantile,
    parse_prometheus,
    read_jsonl,
    replay_metrics,
    write_jsonl,
)
from repro.obs.events import (
    AbortBegun,
    ActivityCommitted,
    ActivityRetried,
    LockDeferred,
    LockGranted,
    ProcessCancelled,
    ProcessCommitted,
)
from repro.scheduler.events import OUTCOMES, by_outcome
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload

CONTENDED = WorkloadSpec(
    n_processes=16,
    n_activity_types=8,
    conflict_density=0.5,
    failure_probability=0.1,
    arrival_spacing=0.5,
    seed=3,
)


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_per_label_child(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help.", ("kind",))
        c.inc(("a",))
        c.inc(("a",), amount=2)
        c.inc(("b",))
        assert c.value(("a",)) == 3
        assert c.value(("b",)) == 1
        assert c.total() == 4

    def test_counter_rejects_negative_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help.")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(amount=-1)

    def test_label_arity_is_enforced(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help.", ("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            c.inc()

    def test_redeclaration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help.", ("kind",))
        b = reg.counter("x_total", "other help.", ("kind",))
        assert a is b

    def test_conflicting_redeclaration_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help.", ("kind",))
        with pytest.raises(ValueError, match="re-declared"):
            reg.gauge("x_total", "help.", ("kind",))
        with pytest.raises(ValueError, match="re-declared"):
            reg.counter("x_total", "help.", ("other",))

    def test_histogram_buckets_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            reg.histogram("h", "help.", buckets=(1.0, 1.0, 2.0))

    def test_histogram_cumulative_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help.", buckets=(1.0, 5.0))
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 2), (5.0, 3), (math.inf, 4)]


# ----------------------------------------------------------------------
# exposition + parser (round-trip through our own parser)
# ----------------------------------------------------------------------
class TestExposition:
    def _registry(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "Events by kind.", ("kind",))
        c.inc(("a",), amount=3)
        c.inc(('we"ird\\label\n',))
        g = reg.gauge("repro_g", "A gauge.")
        g.set(2.5)
        h = reg.histogram("repro_h", "A histogram.", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(9.0)
        return reg

    def test_render_is_deterministic_and_parses(self):
        reg = self._registry()
        text = reg.render_prometheus()
        assert text == self._registry().render_prometheus()
        parsed = parse_prometheus(text)
        assert parsed["repro_x_total"]["type"] == "counter"
        assert (
            parsed["repro_x_total"]["samples"][
                ("repro_x_total", frozenset({("kind", "a")}))
            ]
            == 3
        )
        assert parsed["repro_g"]["samples"][("repro_g", frozenset())] == 2.5
        hist = parsed["repro_h"]["samples"]
        assert hist[("repro_h_bucket", frozenset({("le", "1")}))] == 1
        assert hist[("repro_h_bucket", frozenset({("le", "+Inf")}))] == 2
        assert hist[("repro_h_sum", frozenset())] == 9.5
        assert hist[("repro_h_count", frozenset())] == 2

    def test_label_escaping_round_trips(self):
        text = self._registry().render_prometheus()
        parsed = parse_prometheus(text)
        keys = {
            labels
            for (name, labels) in parsed["repro_x_total"]["samples"]
            if name == "repro_x_total"
        }
        assert frozenset({("kind", 'we"ird\\label\n')}) in keys

    def test_parser_rejects_untyped_samples(self):
        with pytest.raises(ValueError, match="# TYPE"):
            parse_prometheus("repro_x_total 3\n")

    def test_parser_rejects_bad_histogram_suffix(self):
        text = (
            "# TYPE repro_h histogram\n"
            "repro_h_wat 3\n"
        )
        with pytest.raises(ValueError, match="suffix"):
            parse_prometheus(text)

    def test_snapshot_is_strict_json(self):
        snapshot = self._registry().snapshot()
        json.loads(json.dumps(snapshot, allow_nan=False))
        names = [f["name"] for f in snapshot["families"]]
        assert names == ["repro_x_total", "repro_g", "repro_h"]


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        # 10 observations all in (1, 2]: p50 halfway through it.
        cumulative = [(1.0, 0), (2.0, 10), (math.inf, 10)]
        assert histogram_quantile(cumulative, 0.5) == pytest.approx(1.5)

    def test_lowest_bucket_interpolates_from_zero(self):
        cumulative = [(4.0, 8), (math.inf, 8)]
        assert histogram_quantile(cumulative, 0.5) == pytest.approx(2.0)

    def test_overflow_returns_last_finite_bound(self):
        cumulative = [(1.0, 1), (math.inf, 10)]
        assert histogram_quantile(cumulative, 0.99) == 1.0

    def test_empty_histogram_is_nan(self):
        assert math.isnan(histogram_quantile([], 0.5))
        assert math.isnan(
            histogram_quantile([(1.0, 0), (math.inf, 0)], 0.5)
        )


# ----------------------------------------------------------------------
# the event feeder on hand-built streams
# ----------------------------------------------------------------------
class TestEventMetrics:
    def test_exposition_has_no_subsystem_health_families(self):
        names = [
            family["name"]
            for family in EventMetrics().registry.snapshot()["families"]
        ]
        assert len(names) == 31
        gone = (
            "breaker", "admission", "backpressure", "degraded", "wcc_cap",
            "worker",
        )
        assert not [
            name for name in names if any(word in name for word in gone)
        ]

    def test_lock_wait_pairs_first_defer_with_grant(self):
        m = EventMetrics()
        defer = LockDeferred(
            pid=1, incarnation=0, timestamp=1, request="regular",
            activity="reserve", uid=9, mode="w", reason="conflict",
            rule="Comp-Rule",
        )
        m.observe(2.0, defer)
        m.observe(4.0, defer)  # re-defer: the first park time stands
        m.observe(7.0, LockGranted(
            pid=1, incarnation=0, request="regular",
            activity="reserve", uid=9, mode="w",
        ))
        cumulative = m.lock_wait.cumulative(("regular",))
        assert cumulative[-1][1] == 1
        # waited 5 vt units -> lands in the (2, 5] bucket.
        assert m.lock_wait.cumulative(("regular",))[3] == (5.0, 1)
        assert m.lock_defers.value(("Comp-Rule",)) == 2

    def test_a_resubmitted_request_waits_from_its_own_defer(self):
        """A commit request has no uid, so both incarnations of a pid
        ask under one key: the successor's wait (1 vt) must not be
        timed from the aborted incarnation's defer (50 vt earlier)."""
        m = EventMetrics()

        def commit_defer(incarnation: int) -> LockDeferred:
            return LockDeferred(
                pid=1, incarnation=incarnation, timestamp=1,
                request="commit", activity=None, uid=None, mode=None,
                reason="conflict", rule="Piv-Rule",
            )

        m.observe(1.0, commit_defer(0))
        m.observe(2.0, AbortBegun(pid=1, incarnation=0, cause="cascade"))
        m.observe(50.0, commit_defer(1))
        m.observe(51.0, LockGranted(
            pid=1, incarnation=1, request="commit",
            activity=None, uid=None, mode=None,
        ))
        # One wait, in the (0.5, 1] bucket.
        assert m.lock_wait.cumulative(("commit",))[:2] == [
            (0.5, 0), (1.0, 1),
        ]
        assert m._defer_since == {}

    def test_retries_histogram_counts_attempts_per_uid(self):
        m = EventMetrics()
        for attempt in (1, 2, 3):
            m.observe(0.0, ActivityRetried(
                pid=1, activity="ship", uid=5, attempt=attempt
            ))
        m.observe(1.0, ActivityCommitted(
            pid=1, incarnation=0, activity="ship", uid=5
        ))
        m.observe(1.0, ActivityCommitted(
            pid=1, incarnation=0, activity="wrap", uid=6
        ))
        cumulative = m.retries_per_activity.cumulative()
        assert cumulative[-1][1] == 2  # two completed activities
        assert cumulative[0] == (0.0, 1)  # one with zero retries

    def test_cancel_of_running_process_is_not_an_abort_outcome(self):
        m = EventMetrics()
        m.observe(0.0, ProcessCancelled(pid=4, initiated=True))
        from repro.obs.events import ProcessAborted

        m.observe(0.0, AbortBegun(pid=4, incarnation=0, cause="cancel"))
        m.observe(1.0, ProcessAborted(
            pid=4, incarnation=0, resubmit=False
        ))
        assert m.outcomes.value(("cancelled",)) == 1
        assert m.outcomes.value(("aborted",)) == 0
        assert m.aborts.value(("cancel",)) == 1

    def test_gauge_samples_route_shard_prefixes(self):
        m = EventMetrics()
        m.sample_gauges({
            "parked": 2.0, "inflight": 3.0, "live": 4.0,
            "locks": 5.0, "locks.bank": 1.0, "locks.shop": 0.0,
        })
        assert m.parked_gauge.value() == 2.0
        assert m.locks_by_shard.value(("bank",)) == 1.0
        assert set(m.locks_by_shard._children) == {("bank",), ("shop",)}


# ----------------------------------------------------------------------
# outcomes: each pid's fate is folded exactly once
# ----------------------------------------------------------------------
def _run_with_metrics(
    seed: int,
    cancel_pids: tuple[int, ...] = (),
    **config,
):
    spec = CONTENDED.with_(seed=seed)
    workload = build_workload(spec)
    protocol = make_protocol("process-locking", workload)
    tracer = MetricsTracer(sinks=(Tracer(),))
    manager = make_manager(
        protocol,
        subsystems=workload.make_subsystems(),
        config=ManagerConfig(**config),
        seed=seed,
        tracer=tracer,
    )
    pids = [
        manager.submit(program, at=workload.arrival_time(i))
        for i, program in enumerate(workload.programs)
    ]
    for index in cancel_pids:
        pid = pids[index]
        # Mid-run cancels: one before its initiation time, the rest
        # while (probably) running.
        manager.engine.schedule(
            workload.arrival_time(index) + 1.0,
            lambda pid=pid: manager.cancel(pid),
        )
    # Starved pids are outcomes to count here, not a failed run.
    result = manager.run(require_quiescence=False)
    assert not manager.undecided()
    assert result.stats is tracer.metrics
    return result, tracer


@pytest.mark.parametrize("max_resubmissions", [500, 0])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_every_pid_is_counted_once_under_its_fate(seed, max_resubmissions):
    """Each pid counts once, under the outcome the manager decided — a
    cancel or a starvation is not counted again as an abort at its
    terminal."""
    result, __ = _run_with_metrics(
        seed,
        cancel_pids=(0, 4, 9, 15),
        max_resubmissions=max_resubmissions,
    )
    fates = by_outcome(result.records)
    folded = result.stats.outcomes
    assert {
        outcome: len(fates.get(outcome, ())) for outcome in OUTCOMES
    } == {outcome: folded.value((outcome,)) for outcome in OUTCOMES}
    assert folded.total() == result.stats.submitted == len(result.records)
    assert fates["cancelled"]
    assert bool(fates.get("starved")) == (max_resubmissions == 0)

    # The per-pid records are a second account the manager keeps
    # without the event stream: the fold's sums must agree with theirs,
    # the compensated cost split by the label of the run that undid it.
    records = list(result.records.values())
    stats = result.stats
    for name in ("resubmissions", "retries", "compensations"):
        assert getattr(stats, name) == sum(
            getattr(record, name) for record in records
        ), name
    assert stats.compensations > 0
    assert stats.compensated_cost == pytest.approx(
        sum(record.compensated_cost for record in records)
    )
    registry = build_workload(CONTENDED.with_(seed=seed)).registry
    split = {"protocol": 0.0, "intrinsic": 0.0, "subprocess": 0.0}
    for record in records:
        for name, cause in zip(
            record.compensated_names, record.compensated_causes
        ):
            split[cause.partition("-")[0]] += registry.get(name).cost
    assert {
        channel: getattr(stats, f"compensated_cost_{channel}")
        for channel in split
    } == pytest.approx(split)


def test_no_defer_stamp_outlives_its_incarnation():
    """4,000 submits in 16-process bursts on the contended catalog, a
    quarter of each burst cancelled while it runs: at quiescence no
    first-defer stamp is left.  Each deferred request of a pid that was
    then cancelled or aborted used to keep one for ever."""
    spec = WorkloadSpec(
        n_processes=16,
        n_activity_types=12,
        conflict_density=0.6,
        failure_probability=0.04,
        seed=3,
    )
    workload = build_workload(spec)
    tracer = MetricsTracer()
    manager = make_manager(
        make_protocol("process-locking", workload),
        subsystems=workload.make_subsystems(),
        seed=3,
        tracer=tracer,
    )
    engine = manager.engine
    for _ in range(250):
        pids = [manager.submit(program) for program in workload.programs]
        engine.run_due(engine.now + 2.0)
        for pid in pids[::4]:
            manager.cancel(pid)
        engine.run()
    assert not manager.undecided()
    metrics = tracer.metrics
    assert metrics.submitted == 4_000
    assert metrics.lock_defers.total() > 0
    assert metrics.aborts.value(("cancel",)) > 0
    assert metrics.aborts.value(("cascade",)) > 0
    assert metrics._defer_since == {}


def test_tee_leaves_sink_tracer_records_byte_identical(uid_floor):
    """Wrapping a Tracer in the metrics tee must not perturb it."""
    seed = 5
    uid_floor.pin()
    spec = CONTENDED.with_(seed=seed)
    workload = build_workload(spec)
    protocol = make_protocol("process-locking", workload)
    plain = Tracer()
    manager = make_manager(
        protocol, subsystems=workload.make_subsystems(),
        seed=seed, tracer=plain,
    )
    for i, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(i))
    manager.run()

    uid_floor.repin()
    workload = build_workload(spec)
    protocol = make_protocol("process-locking", workload)
    sink = Tracer()
    tee = MetricsTracer(sinks=(sink,))
    manager = make_manager(
        protocol, subsystems=workload.make_subsystems(),
        seed=seed, tracer=tee,
    )
    for i, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(i))
    manager.run()

    assert json.dumps(plain.records()) == json.dumps(sink.records())


def test_replay_from_jsonl_matches_live_registry(tmp_path):
    """Counter families replayed from disk equal the live ones.

    Sampler-polled gauges are excluded: exported records carry no gauge
    samples (the tracer's series bank holds those), so a replay leaves
    them at zero by design.
    """
    result, tracer = _run_with_metrics(7, cancel_pids=(2,))
    sink = tracer.sinks[0]
    path = write_jsonl(sink.records(), tmp_path / "events.jsonl")
    replayed = replay_metrics(read_jsonl(path))

    live = tracer.metrics.registry.snapshot()
    rebuilt = replayed.registry.snapshot()
    gauge_families = {
        f["name"] for f in live["families"] if f["type"] == "gauge"
    }
    live_rest = [
        f for f in live["families"] if f["name"] not in gauge_families
    ]
    rebuilt_rest = [
        f for f in rebuilt["families"]
        if f["name"] not in gauge_families
    ]
    assert live_rest == rebuilt_rest
    assert replayed.committed == result.stats.committed


def test_metrics_tracer_offset_propagates_to_sinks():
    sink = Tracer()
    tee = MetricsTracer(sinks=(sink,))
    tee.offset += 12.5
    assert sink.offset == 12.5
    tee.emit(ProcessCommitted(pid=1, incarnation=0))
    assert sink.records()[0]["t"] == 12.5


def test_incremental_shard_depths_match_recompute():
    """The per-shard depths ``repro_locks_held`` reports ("shard" = the
    owning subsystem) are read off the per-type lock lists when the
    gauges are sampled. Checked drain by drain through a contended
    3-subsystem run: one sample per subsystem of the registry, zeros
    included, each equal to a recompute of that subsystem's share of
    the table; a drained manager is back at zero on every shard."""
    spec = CONTENDED.with_(seed=9)
    workload = build_workload(spec)
    protocol = make_protocol("process-locking", workload)
    tracer = MetricsTracer()
    manager = make_manager(
        protocol,
        subsystems=workload.make_subsystems(),
        seed=spec.seed,
        tracer=tracer,
    )
    for i, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(i))
    subsystems = {t.subsystem for t in workload.registry}
    assert len(subsystems) == 3
    table = protocol.table
    held = tracer.metrics.locks_by_shard
    drains = busy = 0
    deadline = 0.0
    while manager.engine.pending:
        deadline += 0.25
        manager.engine.run_due(deadline)
        tracer.refresh_gauges()
        drains += 1
        expected = {
            subsystem: float(
                sum(
                    len(table.locks_on(t.name))
                    for t in workload.registry
                    if t.subsystem == subsystem
                )
            )
            for subsystem in subsystems
        }
        assert {
            shard: held.value((shard,)) for (shard,) in held._children
        } == expected
        busy += any(expected.values())
    assert drains > 20 and busy > 10
    assert all(depth == 0.0 for depth in expected.values())
