"""Tests for static program cost analysis."""

import math

import pytest

from repro.process.builder import ProgramBuilder
from repro.process.costing import (
    describe_costing,
    enumerate_paths,
    expected_cost,
    path_cost,
    pseudo_pivot_index,
    suggest_threshold,
    wcc_profile,
    worst_case_path_cost,
)


class TestPaths:
    def test_linear_program_single_path(self, flat_program):
        paths = enumerate_paths(flat_program)
        assert paths == [["reserve", "wrap"]]

    def test_alternatives_multiply_paths(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(
                lambda b: b.step("wrap"),
                lambda b: b.step("ship"),
            )
            .build()
        )
        paths = enumerate_paths(program)
        assert paths == [
            ["reserve", "charge", "wrap"],
            ["reserve", "charge", "ship"],
        ]

    def test_preferred_path_first(self, order_program):
        assert enumerate_paths(order_program)[0] == [
            "reserve", "wrap", "charge", "ship",
        ]

    def test_parallel_node_inlined(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .parallel("reserve", "wrap")
            .build()
        )
        assert enumerate_paths(program) == [["reserve", "wrap"]]


class TestCosts:
    def test_worst_case_path(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .pivot("charge")
            .alternatives(
                lambda b: b.step("reserve"),   # cost 2.0
                lambda b: b.step("ship"),      # cost 1.5
            )
            .build()
        )
        # charge 1.0 + max(2.0, 1.5)
        assert worst_case_path_cost(program) == pytest.approx(3.0)

    def test_expected_cost_folds_failures(self, registry):
        program = ProgramBuilder("p", registry).step("reserve").build()
        # reserve: cost 2.0, p = 0.1 -> expected attempts 1/0.9
        assert expected_cost(program) == pytest.approx(2.0 / 0.9)

    def test_expected_at_least_plain(self, order_program):
        plain = path_cost(
            order_program.registry, enumerate_paths(order_program)[0]
        )
        assert expected_cost(order_program) >= plain


class TestWccProfile:
    def test_profile_is_cumulative(self, flat_program):
        steps = wcc_profile(flat_program)
        assert steps[0].wcc_before == 0.0
        assert steps[1].wcc_before == steps[0].wcc_after
        # reserve: 2 + 1 comp; wrap: 1 + 0.5 comp
        assert steps[-1].wcc_after == pytest.approx(4.5)

    def test_pivot_step_is_infinite(self, order_program):
        steps = wcc_profile(order_program)
        pivot_step = next(
            s for s in steps if s.activity == "charge"
        )
        assert math.isinf(pivot_step.wcc_after)

    def test_profile_matches_protocol_charging(
        self, order_program, protocol
    ):
        from tests.conftest import make_process

        process = make_process(protocol, order_program, pid=1)
        for step in wcc_profile(order_program)[:2]:
            activity = process.launch(step.activity)
            protocol.classify_regular(process, activity)
            assert process.wcc == pytest.approx(step.wcc_after)
            process.on_committed(activity)


class TestThresholds:
    def test_pseudo_pivot_index(self, flat_program):
        # Profile: 3.0 then 4.5.
        assert pseudo_pivot_index(flat_program, threshold=2.0) == 0
        assert pseudo_pivot_index(flat_program, threshold=4.0) == 1
        assert pseudo_pivot_index(flat_program, threshold=100.0) is None

    def test_pivot_always_trips(self, order_program):
        index = pseudo_pivot_index(order_program, threshold=1e12)
        steps = wcc_profile(order_program)
        assert steps[index].activity == "charge"

    def test_suggest_threshold_protects_costly_step(self, registry):
        from repro.activities.registry import ActivityRegistry
        from repro.process.builder import ProgramBuilder

        reg = ActivityRegistry()
        reg.define_compensatable("cheap", "s", cost=1.0,
                                 compensation_cost=0.5)
        reg.define_compensatable("dear", "s", cost=30.0,
                                 compensation_cost=5.0)
        program = (
            ProgramBuilder("p", reg)
            .sequence("cheap", "dear", "cheap")
            .build()
        )
        threshold = suggest_threshold(program, protect_cost=30.0)
        # Wcc after cheap = 1.5; after dear = 36.5.
        assert threshold == pytest.approx(36.5)
        # And the suggested threshold indeed trips on 'dear':
        index = pseudo_pivot_index(program, threshold)
        assert enumerate_paths(program)[0][index] == "dear"

    def test_suggest_threshold_without_costly_steps(self, flat_program):
        assert suggest_threshold(flat_program, protect_cost=999.0) == (
            math.inf
        )


class TestDescribe:
    def test_report_renders(self, order_program):
        text = describe_costing(order_program)
        assert "cost analysis" in text
        assert "reserve" in text
        assert "Wcc" in text
