"""From what rounds observed to metric values, by name.

End-to-end values come from the client's stamps and the ``stats`` verb.
Per-layer *counts* come from the public ``stats``/``metrics`` verbs and
the client's own frame counts; per-layer *times* are self times of the
spans a traced server dumped (:mod:`bench.tracing`): a span's duration
minus the part its child spans cover, summed by span name.

Names and units are defined once, in ``BENCHMARK.json``;
:mod:`bench.run` looks every name it prints up in the dictionaries
built here, so a name without a value fails loudly.
"""

from __future__ import annotations

import math
import pickle
import statistics
from dataclasses import dataclass

import numpy as np

from bench import tracing
from bench.harness import REFERENCE_UNIT_S, Round, metric_total
from bench.workloads import Workload


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _latencies_ms(round_: Round) -> list[float]:
    return sorted(
        (s.done - s.started) * 1e3 for s in round_.samples if s.ok
    )


def _committed(sample) -> int:
    return sum(1 for o in sample.outcomes.values() if o == "committed")


def _tail_commit_rate(round_: Round) -> float:
    """Commits per second over the final quarter of the requests."""
    answered = sorted(
        (s for s in round_.samples if s.done is not None),
        key=lambda s: s.done,
    )
    cut = len(answered) - max(1, len(answered) // 4)
    tail = answered[cut:]
    begins = answered[cut - 1].done if cut else round_.opened
    return sum(map(_committed, tail)) / (tail[-1].done - begins)


def host_slowdown(round_: Round) -> float:
    """How many times slower than at its quietest the host ran the
    reference work during the window; 1.0 in an open loop, which times
    none."""
    return round_.reference_unit_s / REFERENCE_UNIT_S or 1.0


def _raw_commit_rate(round_: Round) -> float:
    return round_.stats["manager"]["committed"] / (
        round_.closed - round_.opened
    )


def end_to_end(rounds: list[Round]) -> dict:
    """Every end-to-end metric: the median of its value in each round."""

    def median(value) -> float:
        return statistics.median(value(r) for r in rounds)

    def manager(r: Round) -> dict:
        return r.stats["manager"]

    return {
        # This host runs the same instructions up to twice slower for a
        # second or for an hour; the reference work timed inside the
        # window slows with them, so the product does not.
        "commit_rate": median(
            lambda r: _raw_commit_rate(r) * host_slowdown(r)
        ),
        "attempts_per_commit": median(
            lambda r: (
                manager(r)["submitted"] + manager(r)["resubmissions"]
            )
            / manager(r)["committed"]
        ),
        "store_bytes_per_commit": median(
            lambda r: r.stats["store"]["bytes_written"]
            / manager(r)["committed"]
        ),
        "setup_s": median(
            lambda r: r.setup_s * REFERENCE_UNIT_S / r.setup_reference_unit_s
        ),
        "rss_mb": median(lambda r: r.rss_mb),
    }


def exact_counts(round_: Round) -> dict:
    """Counts one connection in lockstep must reproduce bit for bit."""
    manager, store = round_.stats["manager"], round_.stats["store"]
    return {
        "committed": manager["committed"],
        "resubmissions": manager["resubmissions"],
        "compensations": manager["compensations"],
        "engine_events": round_.stats["engine"]["events_processed"],
        "store_appends": store["appends"],
        "store_bytes_written": store["bytes_written"],
        "store_fsyncs": store["fsyncs"],
    }


# ----------------------------------------------------------------------
# spans -> self times
# ----------------------------------------------------------------------
@dataclass
class SpanSummary:
    """Self seconds and span counts by name, over all threads."""

    self_s: dict[str, float]
    count: dict[str, int]
    #: Wall of the engine thread's root span (the service loop).
    engine_wall_s: float
    #: Sum of every self time on the engine thread; equals
    #: ``engine_wall_s`` when the stack discipline held.
    engine_self_sum_s: float
    #: Request enqueued by the asyncio thread -> picked up by the engine.
    queue_wait_s: float
    #: Drains that had at least one command to apply.
    batches: int
    loop_cpu_s: float


def summarize_spans(path) -> SpanSummary:
    with open(path, "rb") as handle:
        # Written moments ago by the server this benchmark spawned.
        document = pickle.load(handle)
    names = document["names"]
    self_s = dict.fromkeys(names, 0.0)
    count = dict.fromkeys(names, 0)
    engine_wall = engine_self_sum = 0.0
    batches = 0
    enqueued: dict[int, float] = {}
    applied: dict[int, float] = {}
    for columns in document["threads"].values():
        name = np.frombuffer(columns["name"], dtype=np.uint16)
        start = np.frombuffer(columns["start"], dtype=np.float64)
        end = np.frombuffer(columns["end"], dtype=np.float64).copy()
        parent = np.frombuffer(columns["parent"], dtype=np.int32)
        rid = np.frombuffer(columns["rid"], dtype=np.int64)
        end[end == 0.0] = document["dumped_at"]  # still open at the dump
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(name)
        )
        own = duration - covered
        totals = np.bincount(name, weights=own, minlength=len(names))
        calls = np.bincount(name, minlength=len(names))
        for index, span_name in enumerate(names):
            self_s[span_name] += float(totals[index])
            count[span_name] += int(calls[index])
        roots = np.flatnonzero(~nested)
        if len(roots) and names[name[roots[0]]] == tracing.LOOP:
            engine_wall = float(duration[roots].sum())
            engine_self_sum = float(own.sum())
            # The loop's children in order: idle, apply*, run,
            # post_drain; a batch is an idle wait that ended in work.
            steps = name[parent == roots[0]]
            idle, apply = names.index(tracing.IDLE), names.index(tracing.APPLY)
            batches = int(
                np.count_nonzero(
                    (steps[:-1] == idle) & (steps[1:] == apply)
                )
            )
        for span_name, stamps, column in (
            (tracing.EXECUTE, enqueued, end),
            (tracing.APPLY, applied, start),
        ):
            chosen = (name == names.index(span_name)) & (rid >= 0)
            stamps.update(zip(rid[chosen].tolist(), column[chosen].tolist()))
    queue_wait = sum(
        applied[request] - enqueued[request]
        for request in applied.keys() & enqueued.keys()
    )
    return SpanSummary(
        self_s=self_s,
        count=count,
        engine_wall_s=engine_wall,
        engine_self_sum_s=engine_self_sum,
        queue_wait_s=queue_wait,
        batches=batches,
        loop_cpu_s=document["loop_cpu_s"],
    )


#: Span name(s) -> the per-layer time metric their self time feeds.
TIME_METRICS = {
    "server.protocol.decode_s": ("server.protocol.decode",),
    "server.protocol.encode_s": ("server.protocol.encode",),
    "server.service.execute_s": (tracing.EXECUTE,),
    "server.service.apply_s": (tracing.APPLY,),
    "server.service.post_drain_self_s": (tracing.POST_DRAIN,),
    "server.service.idle_s": (tracing.IDLE,),
    "server.service.loop_other_s": (tracing.LOOP,),
    "server.bus.bridge_emit_s": (
        "server.bus.bridge_emit",
        "server.bus.publish",
        "server.net.push_event",
    ),
    "scheduler.engine.run_self_s": ("scheduler.engine.run",),
    "scheduler.manager.submit_s": ("scheduler.manager.submit",),
    "scheduler.manager.handler_self_s": ("scheduler.manager.handler",),
    "scheduler.manager.park_wake_s": ("scheduler.manager.park_wake",),
    "core.protocol.rules_s": ("core.protocol.rules",),
    "core.sharding.acquire_s": ("core.sharding.acquire",),
    "core.sharding.release_s": ("core.sharding.release",),
    "core.deadlock.resolve_s": ("core.deadlock.resolve",),
    "subsystems.execute_s": ("subsystems.execute",),
    "storage.plane.note_submit_s": ("storage.plane.note_submit",),
    "storage.plane.after_drain_self_s": ("storage.plane.after_drain",),
    "storage.plane.snapshot_s": ("storage.plane.snapshot",),
    "storage.plane.journal_encode_s": ("storage.journal.append",),
    "storage.backend.append_s": ("storage.backend.append",),
    "storage.backend.replace_s": ("storage.backend.replace",),
    "storage.backend.flush_s": ("storage.backend.flush",),
    "obs.emit_s": ("obs.emit",),
    "obs.metrics_tee_s": ("obs.metrics_tee",),
    "obs.flight_s": ("obs.flight",),
    "obs.journal_tracer_s": ("obs.journal_tracer",),
}

#: Spans the asyncio thread records; its CPU beyond them is the
#: connection handling no hook can reach from outside.
_LOOP_THREAD_SPANS = (
    "server.protocol.decode",
    "server.protocol.encode",
    tracing.EXECUTE,
)


def _layer_times(spans: SpanSummary) -> dict:
    values = {
        metric: sum(spans.self_s.get(name, 0.0) for name in sources)
        for metric, sources in TIME_METRICS.items()
    }
    values["server.service.queue_wait_s"] = spans.queue_wait_s
    values["server.service.busy_s"] = (
        spans.engine_wall_s - values["server.service.idle_s"]
    )
    values["server.service.batches"] = spans.batches
    applies = spans.count.get(tracing.APPLY, 0)
    values["server.service.cmds_per_batch"] = (
        applies / spans.batches if spans.batches else 0.0
    )
    values["server.net.loop_cpu_s"] = spans.loop_cpu_s
    values["server.net.request_self_s"] = max(
        0.0,
        spans.loop_cpu_s
        - sum(spans.self_s.get(name, 0.0) for name in _LOOP_THREAD_SPANS),
    )
    values["core.sharding.acquires"] = spans.count.get(
        "core.sharding.acquire", 0
    )
    values["subsystems.executions"] = spans.count.get(
        "subsystems.execute", 0
    )
    return values


def _layer_counts(round_: Round) -> dict:
    """Counts from the ``stats`` and ``metrics`` verbs and the client."""
    stats, metrics = round_.stats, round_.metrics
    manager, store, bus = stats["manager"], stats["store"], stats["bus"]

    def total(family: str, **labels) -> float:
        return metric_total(metrics, family, **labels)

    grants = total("repro_lock_grants_total")
    defers = total("repro_lock_defers_total")
    attempts = manager["submitted"] + manager["resubmissions"]
    return {
        "server.protocol.frames": round_.frames_in,
        "server.protocol.bytes_out": round_.bytes_in,
        "server.net.event_frames": sum(round_.events_in.values()),
        "server.service.shed": total("repro_service_shed_total"),
        "server.bus.published": bus["published"],
        "server.bus.delivered": bus["delivered"],
        "server.bus.dropped": bus["dropped"],
        "scheduler.engine.events": stats["engine"]["events_processed"],
        "scheduler.manager.parks": total("repro_parks_total"),
        "scheduler.manager.resubmissions": manager["resubmissions"],
        "scheduler.manager.protocol_aborts": manager["protocol_aborts"],
        "scheduler.manager.intrinsic_aborts": manager["intrinsic_aborts"],
        "scheduler.manager.compensations": manager["compensations"],
        "scheduler.manager.compensated_cost_protocol": manager[
            "compensated_cost_protocol"
        ],
        "scheduler.manager.useful_ratio": manager["committed"] / attempts,
        "scheduler.manager.resubmits_per_commit": manager["resubmissions"]
        / manager["committed"],
        "core.protocol.grants": grants,
        "core.protocol.defers": defers,
        "core.protocol.cascades": total("repro_lock_cascades_total"),
        "core.protocol.cascade_victims": total(
            "repro_cascade_victims_total"
        ),
        "core.protocol.grant_ratio": grants / (grants + defers),
        "core.deadlock.victims": manager["deadlock_victims"],
        "storage.plane.snapshots": total(
            "repro_events_total", kind="store.snapshot"
        ),
        "storage.plane.recover_s": round_.recovered.get("seconds", 0.0),
        "storage.backend.appends": store["appends"],
        "storage.backend.fsyncs": store["fsyncs"],
        "storage.backend.bytes_written": store["bytes_written"],
        "obs.events": total("repro_events_total"),
    }


def gen_lag_p99_ms(rounds: list[Round]) -> float:
    """How late the open-loop generator sent, behind each due time."""
    lags = sorted(lag * 1e3 for r in rounds for lag in r.lags)
    return percentile(lags, 0.99) if lags else 0.0


def client_health(rounds: list[Round], workload: Workload) -> dict:
    """What the client timed, and its own health; none of it gated.

    Like every other value, the median over rounds of each round's.
    """
    latencies = list(map(_latencies_ms, rounds))
    attempted = sum(len(r.samples) for r in rounds)
    return {
        "client.gen_lag_p99_ms": gen_lag_p99_ms(rounds),
        "client.host_slowdown": statistics.median(
            map(host_slowdown, rounds)
        ),
        "client.raw_commit_rate": statistics.median(
            map(_raw_commit_rate, rounds)
        ),
        "client.raw_setup_s": statistics.median(r.setup_s for r in rounds),
        "client.lat_p50_ms": statistics.median(
            percentile(ms, 0.50) for ms in latencies
        ),
        "client.lat_tail_ms": statistics.median(
            percentile(ms, workload.tail_q) for ms in latencies
        ),
        "client.tail_commit_rate": statistics.median(
            map(_tail_commit_rate, rounds)
        ),
        "client.recover_s": statistics.median(
            r.recover_s for r in rounds
        ),
        "client.ontime_frac": sum(
            1 for ms in latencies for value in ms
            if value <= workload.limit_ms
        )
        / attempted,
        "client.fail_frac": sum(
            1 for r in rounds for s in r.samples if not s.ok
        )
        / attempted,
    }


def per_layer(rounds: list[tuple[Round, SpanSummary]]) -> dict:
    """The server's layers in a traced run; medians over rounds."""
    per_round = []
    for round_, spans in rounds:
        values = {**_layer_counts(round_), **_layer_times(spans)}
        emit_s = sum(
            values[name]
            for name in (
                "obs.emit_s",
                "obs.metrics_tee_s",
                "obs.flight_s",
                "obs.journal_tracer_s",
                "server.bus.bridge_emit_s",
            )
        )
        values["obs.emit_us_per_event"] = (
            emit_s * 1e6 / values["obs.events"]
        )
        # By construction 1.0; anything else means a span escaped the
        # stack discipline and the attribution cannot be trusted.
        values["trace.self_sum_over_wall"] = (
            spans.engine_self_sum_s / spans.engine_wall_s
        )
        per_round.append(values)
    return {
        name: statistics.median(values[name] for values in per_round)
        for name in per_round[0]
    }
