"""Tests for the timeline renderer and the JSON export helpers."""

import json
import math

import pytest

from repro.analysis.export import rows_to_json
from repro.analysis.timeline import render_timeline
from repro.core.protocol import ProcessLockManager
from repro.scheduler.manager import ProcessManager
from repro.theory.schedule import ProcessSchedule


class TestTimeline:
    def _run_schedule(self, registry, conflicts, order_program):
        protocol = ProcessLockManager(registry, conflicts)
        manager = ProcessManager(protocol, seed=3)
        manager.submit(order_program)
        manager.submit(order_program)
        result = manager.run()
        return result.trace.to_schedule(conflicts.conflict)

    def test_one_lane_per_incarnation(
        self, registry, conflicts, order_program
    ):
        schedule = self._run_schedule(
            registry, conflicts, order_program
        )
        text = render_timeline(schedule)
        lanes = [
            line for line in text.splitlines() if line.startswith("P")
        ]
        assert len(lanes) == len(schedule.processes)

    def test_glyphs_present(self, registry, conflicts, order_program):
        schedule = self._run_schedule(
            registry, conflicts, order_program
        )
        text = render_timeline(schedule)
        assert "C" in text  # commits
        assert "R" in text  # reserve

    def test_legend_lists_activities(
        self, registry, conflicts, order_program
    ):
        schedule = self._run_schedule(
            registry, conflicts, order_program
        )
        text = render_timeline(schedule)
        assert "legend:" in text
        assert "R=reserve" in text

    def test_legend_optional(self, registry, conflicts, order_program):
        schedule = self._run_schedule(
            registry, conflicts, order_program
        )
        assert "legend:" not in render_timeline(schedule, legend=False)

    def test_truncation(self, registry, conflicts, order_program):
        schedule = self._run_schedule(
            registry, conflicts, order_program
        )
        text = render_timeline(schedule, max_width=3, legend=False)
        assert "…" in text

    def test_empty_schedule(self):
        schedule = ProcessSchedule([], lambda a, b: False)
        assert "empty" in render_timeline(schedule)

    def test_compensations_are_lower_case(
        self, registry, conflicts
    ):
        from repro.process.builder import ProgramBuilder
        from repro.activities.registry import ActivityRegistry
        from repro.activities.commutativity import ConflictMatrix

        reg = ActivityRegistry()
        reg.define_compensatable("zap", "s", cost=1.0,
                                 compensation_cost=0.5)
        reg.define_compensatable("boom", "s", cost=1.0,
                                 compensation_cost=0.5,
                                 failure_probability=0.999)
        con = ConflictMatrix(reg)
        con.close_perfect()
        program = (
            ProgramBuilder("p", reg).step("zap").step("boom").build()
        )
        protocol = ProcessLockManager(reg, con)
        manager = ProcessManager(protocol, seed=1)
        manager.submit(program)
        result = manager.run()
        schedule = result.trace.to_schedule(con.conflict)
        text = render_timeline(schedule, legend=False)
        assert "Z" in text and "z" in text  # zap and zap^-1
        assert "A" in text  # the abort


class TestExport:
    def test_rows_to_json_round_trip(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": float("inf")}]
        parsed = json.loads(rows_to_json(rows))
        assert parsed[0]["a"] == 1
        assert parsed[1]["b"] == "Infinity"

    def test_dataclasses_supported(self):
        from repro.sim.metrics import RunMetrics

        metrics = RunMetrics(
            protocol="x", committed=1, submitted=2, makespan=3.0,
            throughput=0.5, mean_latency=1.0, mean_concurrency=1.0,
            protocol_aborts=0, intrinsic_aborts=0, subprocess_aborts=0,
            resubmissions=0, compensations=0, compensated_cost=0.0,
            deadlock_victims=0, unresolvable_violations=0, defers=0,
            cascade_victims=0,
        )
        parsed = json.loads(rows_to_json([metrics]))
        assert parsed[0]["protocol"] == "x"

    def test_nan_and_sets(self):
        """A non-finite float is spelled as the event stream spells it;
        what strict JSON has no spelling for is refused, not guessed."""
        parsed = json.loads(rows_to_json([{"x": math.nan, "y": -math.inf}]))
        assert parsed[0] == {"x": "NaN", "y": "-Infinity"}
        with pytest.raises(TypeError):
            rows_to_json([{"y": {1, 2}}])
