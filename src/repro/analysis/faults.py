"""Fault-campaign summary tables.

Condenses a :class:`~repro.faults.harness.CampaignReport` into the text
tables printed by ``repro chaos``: one row per run (plan × workload ×
protocol) with the invariant verdicts and fault counters, plus a
per-plan rollup.
"""

from __future__ import annotations

from repro.analysis.tables import render_dict_table

#: Invariants in display order (columns of the run table).
CHECKS = ("terminated", "conserved", "ct", "prc", "splice", "wal")


def _verdict(checks: dict, name: str) -> str:
    if name not in checks:
        return "-"
    return "pass" if checks[name] else "FAIL"


def campaign_rows(report) -> list[dict[str, object]]:
    """One table row per chaos run."""
    rows = []
    for run in report.runs:
        row: dict[str, object] = {
            "plan": run.plan,
            "workload": run.workload,
            "protocol": run.protocol,
        }
        for name in CHECKS:
            row[name] = _verdict(run.checks, name)
        metrics = run.metrics
        row["committed"] = metrics.committed if metrics else "-"
        row["injected"] = metrics.faults_injected if metrics else "-"
        row["retries"] = metrics.fault_retries if metrics else "-"
        row["recoveries"] = metrics.fault_recoveries if metrics else "-"
        row["trace"] = run.trace_digest[:8] if run.trace_digest else "-"
        rows.append(row)
    return rows


def plan_rollup_rows(report) -> list[dict[str, object]]:
    """Per-plan aggregate: runs, passes, and summed fault counters."""
    by_plan: dict[str, dict[str, int]] = {}
    for run in report.runs:
        agg = by_plan.setdefault(
            run.plan,
            {
                "runs": 0,
                "passed": 0,
                "injected": 0,
                "retries": 0,
                "recoveries": 0,
            },
        )
        agg["runs"] += 1
        agg["passed"] += 1 if run.ok else 0
        if run.metrics:
            agg["injected"] += run.metrics.faults_injected
            agg["retries"] += run.metrics.fault_retries
            agg["recoveries"] += run.metrics.fault_recoveries
    return [
        {"plan": plan, **agg} for plan, agg in by_plan.items()
    ]


def _run_json(run) -> dict[str, object]:
    """Machine-readable form of one chaos run (raw booleans)."""
    metrics = run.metrics
    return {
        "plan": run.plan,
        "workload": run.workload,
        "protocol": run.protocol,
        "ok": run.ok,
        "checks": dict(run.checks),
        "failures": list(run.failures),
        "committed": metrics.committed if metrics else None,
        "injected": metrics.faults_injected if metrics else None,
        "retries": metrics.fault_retries if metrics else None,
        "recoveries": metrics.fault_recoveries if metrics else None,
        "events": run.events,
        "incarnations": run.incarnations,
        "dropped_injections": run.dropped_injections,
        "retry_budget_exhausted": run.retry_budget_exhausted,
        "trace_digest": run.trace_digest,
    }


def campaign_json(report) -> dict[str, object]:
    """Machine-readable campaign report (``repro chaos --json``).

    Unlike :func:`campaign_rows` (display strings: "pass"/"FAIL"),
    check verdicts here are raw booleans so scripts can consume them
    without string matching; the exit-code contract mirrors ``ok``.
    """
    return {
        "seed": report.seed,
        "ok": report.ok,
        "counts": report.counts(),
        "runs": [_run_json(run) for run in report.runs],
    }


def render_campaign(report, verbose: bool = False) -> str:
    """The full chaos-campaign report as text tables."""
    counts = report.counts()
    parts = [
        render_dict_table(
            plan_rollup_rows(report),
            title=(
                f"chaos campaign (seed {report.seed}): "
                f"{counts['passed']}/{counts['runs']} runs passed, "
                f"{counts['events']} events"
            ),
        )
    ]
    if verbose or not report.ok:
        parts.append(
            render_dict_table(campaign_rows(report), title="runs")
        )
    for run in report.failed:
        parts.append(
            f"FAILED {run.plan} × {run.workload} × {run.protocol}: "
            f"{', '.join(run.failures)}"
        )
    return "\n\n".join(parts)
