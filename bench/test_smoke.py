"""Smoke test of the benchmark itself (not in tier-1 ``testpaths``).

    python -m pytest bench/test_smoke.py -q

Every workload at 1/20 size, traced, one round each: the whole pipeline
— verify pass, timed window, crash, restart, audit, span arithmetic —
in well under a minute.
"""

from __future__ import annotations

import asyncio
import re
import subprocess

import pytest

from bench import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results() -> dict[str, dict]:
    return {
        name: asyncio.run(
            run.measure(workload.scaled(0.05), seed=3, seconds=0, trace=True)
        )
        for name, workload in run.WORKLOADS.items()
    }


def test_runs_are_correct(results):
    for name, result in results.items():
        assert result["problems"] == [], name
        assert result["failed"] == 0 and result["attempted"] > 0, name


def test_every_defined_metric_is_emitted_with_a_unit(results):
    defined = {**run.defined("end_to_end"), **run.defined("per_layer")}
    assert {w["name"] for w in run.DEFINITION["workloads"]} == set(results)
    for name, entry in defined.items():
        assert NAME.fullmatch(name), name
        assert entry["unit"], name
        for workload, result in results.items():
            assert isinstance(
                result["metrics"][name], (int, float)
            ), f"{name} on {workload}"


def test_end_to_end_metrics_are_never_zero(results):
    for workload, result in results.items():
        for name in run.defined("end_to_end"):
            assert result["metrics"][name] > 0, f"{name} on {workload}"


def test_traced_self_times_sum_to_the_engine_threads_wall(results):
    for workload, result in results.items():
        metrics = result["metrics"]
        assert metrics["trace.self_sum_over_wall"] == pytest.approx(
            1.0, abs=0.02
        ), workload
        assert (
            metrics["server.service.loop_other_s"]
            < 0.05 * metrics["server.service.busy_s"]
        ), workload


def test_subsystems_run_only_on_the_grounded_workload(results):
    for workload, result in results.items():
        ran = result["metrics"]["subsystems.executions"] > 0
        assert ran == (workload == "grounded_closed"), workload


def test_scratch_files_stay_out_of_the_index():
    for path in ("bench/.work/x-1.spans", "bench/.work/x-1/journal.log"):
        checked = subprocess.run(
            ["git", "check-ignore", "-q", path], cwd=run.ROOT
        )
        if checked.returncode == 128:
            pytest.skip("not a git checkout")
        assert checked.returncode == 0, path
