"""Renderer behind ``repro top`` — a live text dashboard.

Pure functions over the ``stats`` and ``metrics`` wire-verb bodies, so
the dashboard is testable without a terminal or a running service: the
CLI loop polls a :class:`~repro.client.ServiceClient`, diffs successive
snapshots for rates, and prints :func:`render_top`'s output.
"""

from __future__ import annotations

import math

from repro.obs.metrics import histogram_quantile

__all__ = ["TopState", "render_top"]


def family(snapshot: dict, name: str) -> dict | None:
    """One family entry out of a ``metrics`` wire-verb body."""
    for entry in snapshot.get("families", ()):
        if entry["name"] == name:
            return entry
    return None


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a family's samples matching the given labels."""
    entry = family(snapshot, name)
    if entry is None:
        return 0.0
    total = 0.0
    for sample in entry["samples"]:
        if all(
            sample["labels"].get(k) == v for k, v in labels.items()
        ):
            total += sample.get("value", 0.0)
    return total


def gauge_samples(snapshot: dict, name: str) -> list[tuple[dict, float]]:
    entry = family(snapshot, name)
    if entry is None:
        return []
    return [
        (sample["labels"], sample.get("value", 0.0))
        for sample in entry["samples"]
    ]


def _le(text: str) -> float:
    return math.inf if text == "+Inf" else float(text)


def merged_histogram(snapshot: dict, name: str) -> list[tuple[float, float]]:
    """Cumulative ``(le, count)`` pairs summed over every label child."""
    entry = family(snapshot, name)
    if entry is None or not entry["samples"]:
        return []
    merged: dict[float, float] = {}
    for sample in entry["samples"]:
        for le_text, cum in sample.get("buckets", ()):
            bound = _le(le_text)
            merged[bound] = merged.get(bound, 0.0) + cum
    return sorted(merged.items())


class TopState:
    """Previous-poll memory for rate computation."""

    def __init__(self) -> None:
        self.committed = 0.0
        self.submitted = 0.0
        self.events = 0.0


def _fmt_rate(value: float) -> str:
    return f"{value:8.1f}/s"


def _fmt_latency(seconds: float) -> str:
    if math.isnan(seconds):
        return "     -"
    if seconds < 1.0:
        return f"{seconds * 1000:5.1f}ms"
    return f"{seconds:5.2f}s "


def render_top(
    stats: dict,
    metrics: dict,
    state: TopState | None = None,
    elapsed: float = 0.0,
) -> str:
    """One dashboard frame from the two wire-verb bodies.

    ``state`` carries the previous poll's totals (mutated in place to
    the current ones) and ``elapsed`` the wall seconds since that poll;
    together they turn monotone counters into rates.  Pass ``None`` /
    ``0.0`` for a rate-less first frame.
    """
    snapshot = metrics.get("metrics", metrics)
    manager = stats.get("manager", {})
    service = stats.get("service", {})
    engine = stats.get("engine", {})
    bus = stats.get("bus", {})

    committed = float(manager.get("committed", 0))
    submitted = float(manager.get("submitted", 0))
    events = float(engine.get("events_processed", 0))
    commit_rate = submit_rate = event_rate = math.nan
    if state is not None and elapsed > 0:
        commit_rate = (committed - state.committed) / elapsed
        submit_rate = (submitted - state.submitted) / elapsed
        event_rate = (events - state.events) / elapsed
    if state is not None:
        state.committed = committed
        state.submitted = submitted
        state.events = events

    lines = []
    draining = " DRAINING" if service.get("draining") else ""
    lines.append(
        f"repro top — vt {engine.get('now', 0.0):.2f}  "
        f"backlog {service.get('backlog', 0)}  "
        f"subscribers {bus.get('subscribers', 0)}{draining}"
    )
    lines.append("-" * 72)

    def rate(x: float) -> str:
        return "       -" if math.isnan(x) else f"{x:7.1f}"

    lines.append(
        f"processes   submitted {submitted:8.0f} ({rate(submit_rate)}/s)"
        f"   committed {committed:8.0f} ({rate(commit_rate)}/s)"
    )
    lines.append(
        f"            aborts {manager.get('protocol_aborts', 0) + manager.get('intrinsic_aborts', 0):5.0f}"
        f"   cancels {manager.get('cancellations', 0):5.0f}"
        f"   resubmits {manager.get('resubmissions', 0):5.0f}"
        f"   retries {manager.get('retries', 0):5.0f}"
        f"   engine {rate(event_rate)} ev/s"
    )

    merged = merged_histogram(snapshot, "repro_submit_to_commit_seconds")
    p50 = histogram_quantile(merged, 0.50)
    p99 = histogram_quantile(merged, 0.99)
    count = merged[-1][1] if merged else 0
    lines.append(
        f"latency     submit→done p50 {_fmt_latency(p50)}  "
        f"p99 {_fmt_latency(p99)}  (n={count:.0f})"
    )

    lock_rows = gauge_samples(snapshot, "repro_locks_held")
    if lock_rows:
        shard_parts = [
            f"{labels.get('shard', '?')}: locks={locks:.0f}"
            for labels, locks in sorted(
                lock_rows, key=lambda r: r[0].get("shard", "")
            )
        ]
        lines.append("shards      " + "   ".join(shard_parts))

    defers = counter_total(snapshot, "repro_lock_defers_total")
    grants = counter_total(snapshot, "repro_lock_grants_total")
    cascades = counter_total(snapshot, "repro_lock_cascades_total")
    deadlocks = counter_total(snapshot, "repro_deadlock_victims_total")
    shed = counter_total(snapshot, "repro_service_shed_total")
    lines.append(
        f"protocol    grants {grants:7.0f}   defers {defers:6.0f}"
        f"   cascades {cascades:5.0f}   deadlock victims {deadlocks:4.0f}"
        f"   shed {shed:4.0f}"
    )
    lines.append(
        f"bus         published {bus.get('published', 0):8.0f}"
        f"   delivered {bus.get('delivered', 0):8.0f}"
        f"   dropped {bus.get('dropped', 0):4.0f}"
    )
    return "\n".join(lines)
