"""Replay a JSONL trace into a causal account of one process's fate.

``repro explain <pid>`` answers the questions end-of-run aggregates
cannot: *why* did this process defer (which holder, which lock mode,
which rule), who cascade-aborted it (and which timestamp comparison
doomed it), how long was it parked, and how did it finally terminate.

The replay consumes the flat record dictionaries of a JSONL event log
(:func:`repro.obs.export.read_jsonl`); it never needs the live
simulation objects, so traces can be explained long after the run.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.obs.events import ParkTracker, record_to_event


def deferred_pids(records: list[dict]) -> list[int]:
    """Pids that suffered at least one deferment, most-deferred first."""
    return rank_deferred(
        record["pid"] for record in records if record["kind"] == "lock.defer"
    )


def rank_deferred(pids: Iterable[int]) -> list[int]:
    """Each pid once, the most frequent first (ties by pid)."""
    counts = Counter(pids)
    return sorted(counts, key=lambda pid: (-counts[pid], pid))


def _request_label(record: dict) -> str:
    activity = record.get("activity")
    if record["request"] == "commit" or activity is None:
        return record["request"]
    mode = record.get("mode")
    lock = f" ({mode} lock)" if mode else ""
    return f"{record['request']} {activity!r}{lock}"


def explain_process(records: list[dict], pid: int) -> str:
    """Human-readable causal account of process ``pid``.

    Raises
    ------
    ValueError
        If the trace contains no event for ``pid``.
    """
    lines: list[str] = []
    defers = 0
    cascades_suffered = 0
    resubmissions = 0
    blocked_total = 0.0
    #: The line of each of ``pid``'s deferments still parked.
    defer_lines: dict = {}

    def ended(park, event) -> None:
        # A request still parked when the trace ends has no duration.
        nonlocal blocked_total
        if park.pid == pid:
            blocked_total += park.end - park.start
            if park in defer_lines:
                lines[defer_lines.pop(park)] += (
                    f"; parked for {park.end - park.start:g} vt"
                )

    parks = ParkTracker(ended)
    outcome = "still live at end of trace"
    seen = False
    #: (line index, since) of a restart-gate hold not yet ended.
    held: tuple[int, float] | None = None

    def add(t: float, text: str) -> None:
        lines.append(f"  vt {t:>8.2f}  {text}")

    for record in records:
        t = record["t"]
        kind = record["kind"]
        if kind in ParkTracker.KINDS:
            event = record_to_event(record)
            park = parks.observe(t, event)
        if kind == "lock.cascade" and record.get("pid") != pid:
            for victim in event.victims:
                if victim.pid == pid:
                    seen = True
                    cascades_suffered += 1
                    add(
                        t,
                        f"CASCADE-ABORTED by P{record['pid']} "
                        f"(ts {record['timestamp']}) requesting "
                        f"{_request_label(record)}: holder ts "
                        f"{victim.timestamp} lost the timestamp "
                        f"comparison",
                    )
            continue
        if record.get("pid") != pid:
            continue
        seen = True
        if kind == "process.submit":
            add(t, "submitted")
        elif kind == "process.init":
            add(
                t,
                f"initiated with timestamp {record['timestamp']} "
                f"(incarnation {record['incarnation']})",
            )
        elif kind == "wcc.classify":
            treatment = (
                "pivot"
                if record["real_pivot"]
                else "pseudo-pivot" if record["pseudo_pivot"] else None
            )
            if treatment is not None:
                add(
                    t,
                    f"{record['activity']!r} treated as {treatment} "
                    f"(Wcc {record['wcc']:g} vs Wcc* "
                    f"{record['threshold']:g}) -> P lock",
                )
        elif kind == "lock.grant":
            if record["request"] == "commit":
                add(t, "commit allowed (no lock on hold)")
            else:
                add(
                    t,
                    f"granted {record['mode']}({record['activity']}) "
                    f"at position {record['position']}",
                )
        elif kind == "lock.defer":
            defers += 1
            holders = ", ".join(
                holder.describe() for holder in event.blockers
            )
            text = (
                f"DEFERRED {_request_label(record)} — "
                f"reason '{record['reason']}' [{record['rule']}]; "
                f"blocked by {holders or 'terminating processes'}"
            )
            if park.shard:
                text += f" [shard {park.shard}]"
            defer_lines[park] = len(lines)
            add(t, text)
        elif kind == "lock.cascade":
            victims = ", ".join(
                victim.describe() for victim in event.victims
            )
            add(
                t,
                f"requested cascade abort of {victims} to serve "
                f"{_request_label(record)} (requester ts "
                f"{record['timestamp']} is older)",
            )
        elif kind == "lock.self-abort":
            add(
                t,
                f"told to SELF-ABORT on {_request_label(record)} — "
                f"reason '{record['reason']}' [{record['rule']}]",
            )
        elif kind == "lock.convert":
            add(
                t,
                f"C({record['type_name']}) converted to P "
                f"(Comp→Piv-Rule, position {record['position']})",
            )
        elif kind == "activity.fail":
            add(t, f"activity {record['activity']!r} failed")
        elif kind == "activity.retry":
            add(
                t,
                f"activity {record['activity']!r} retrying "
                f"(attempt {record['attempt']})",
            )
        elif kind == "activity.cancel":
            add(
                t,
                f"in-flight {record['activity']!r} torn down by abort",
            )
        elif kind == "deadlock.victim":
            cycle = " -> ".join(f"P{p}" for p in record["cycle"])
            add(t, f"chosen as deadlock victim (cycle {cycle})")
        elif kind == "deadlock.forced":
            add(
                t,
                f"forced through an unresolvable cycle "
                f"({record['request']})",
            )
        elif kind == "process.abort-begin":
            add(t, f"abort started (cause: {record['cause']})")
        elif kind == "process.cancel":
            outcome = "cancelled"
            add(
                t,
                "CANCELLED by client"
                + (
                    " (running: abort-process executes, no "
                    "resubmission)"
                    if record["initiated"]
                    else " (before initiation: dropped)"
                ),
            )
        elif kind == "process.starved":
            outcome = "starved"
            add(t, f"STARVED after {record['resubmissions']} resubmissions")
        elif kind == "process.abort":
            if outcome not in ("cancelled", "starved"):
                outcome = "aborted"
            tail = (
                "resubmission scheduled"
                if record["resubmit"]
                else "terminal"
            )
            add(t, f"abort-process execution finished ({tail})")
        elif kind == "process.held":
            held = (len(lines), t)
            older = ", ".join(f"P{p}" for p in record["behind"])
            add(t, f"held behind {older}")
        elif kind == "process.resubmit":
            if held is not None:
                lines[held[0]] += f" for {t - held[1]:g} vt"
                held = None
            resubmissions += 1
            add(
                t,
                f"resubmitted as incarnation {record['incarnation']} "
                f"keeping original timestamp {record['timestamp']}",
            )
        elif kind == "process.commit":
            outcome = "committed"
            add(t, "COMMITTED")
        elif kind == "retry.budget_exhausted":
            add(
                t,
                f"retry budget exhausted on {record['activity']!r} "
                f"after {record['attempts']} attempts — treated as "
                f"success to preserve termination",
            )
        elif kind == "fault.inject":
            add(
                t,
                f"fault injected: {record['channel']}"
                + (
                    f" on {record['activity']!r}"
                    if record.get("activity")
                    else ""
                ),
            )
    if not seen:
        raise ValueError(f"trace contains no events for pid {pid}")
    header = [
        f"P{pid} — causal account ({len(lines)} events)",
        "=" * 60,
    ]
    footer = [
        "-" * 60,
        f"  deferments: {defers}   time parked: {blocked_total:g} vt   "
        f"cascade aborts suffered: {cascades_suffered}   "
        f"resubmissions: {resubmissions}",
        f"  final outcome: {outcome}",
    ]
    return "\n".join(header + lines + footer)
