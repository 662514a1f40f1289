"""Tests for cost-based scheduling (Section 4, Figure 1, Lemma 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activities.registry import ActivityRegistry
from repro.core.cost_based import (
    figure1_trace,
    is_pseudo_pivot,
    lemma1_holds,
    wcc_after,
)
from repro.core.locks import LockMode
from repro.core.protocol import ProcessLockManager
from repro.process.builder import ProgramBuilder
from repro.process.instance import Process


def worst_case_cost(
    registry: ActivityRegistry, executed: list[str]
) -> float:
    """``Wcc(P, S)`` of Equation 1 over executed regular activity names.

    Sums ``c(a) + c(a⁻¹)`` for every executed regular activity; the
    compensation of a pivot contributes ``inf``.
    """
    total = 0.0
    for name in executed:
        activity = registry.get(name)
        total += activity.cost + registry.compensation_cost(name)
    return total


@pytest.fixture
def cost_registry() -> ActivityRegistry:
    registry = ActivityRegistry()
    registry.define_compensatable("cheap", "s", cost=2.0,
                                  compensation_cost=1.0)
    registry.define_compensatable("pricey", "s", cost=30.0,
                                  compensation_cost=10.0)
    registry.define_pivot("pivot", "s", cost=1.0)
    return registry


class TestWccAccounting:
    def test_equation_1(self, cost_registry):
        total = worst_case_cost(cost_registry, ["cheap", "pricey"])
        assert total == pytest.approx(2 + 1 + 30 + 10)

    def test_equation_2(self, cost_registry):
        after = wcc_after(cost_registry, 5.0, "cheap")
        assert after == pytest.approx(8.0)

    def test_pivot_contributes_infinity(self, cost_registry):
        assert math.isinf(
            worst_case_cost(cost_registry, ["cheap", "pivot"])
        )

    def test_equation_3_pseudo_pivot(self, cost_registry):
        # threshold crossed exactly by 'pricey' (3 -> 43 over 40).
        assert is_pseudo_pivot(cost_registry, 3.0, "pricey", 40.0)
        assert not is_pseudo_pivot(cost_registry, 3.0, "cheap", 40.0)
        assert not is_pseudo_pivot(cost_registry, 50.0, "pricey", 40.0)

    def test_real_pivot_is_not_pseudo(self, cost_registry):
        assert not is_pseudo_pivot(cost_registry, 3.0, "pivot", 40.0)


class TestLemma1:
    def test_pivot_always_crosses_any_finite_threshold(
        self, cost_registry
    ):
        for threshold in (0.0, 1.0, 1e6, 1e12):
            assert lemma1_holds(cost_registry, "pivot", threshold)

    def test_even_infinite_threshold(self, cost_registry):
        assert lemma1_holds(cost_registry, "pivot", math.inf)

    def test_non_pivot_rejected(self, cost_registry):
        with pytest.raises(ValueError):
            lemma1_holds(cost_registry, "cheap", 10.0)


class TestFigure1Trace:
    def test_treatments_in_demo(self):
        from repro.analysis.exhibits import build_figure1_demo

        registry, names, threshold = build_figure1_demo()
        steps = figure1_trace(registry, names, threshold)
        treatments = [step.treatment for step in steps]
        assert treatments == [
            LockMode.C, LockMode.C, LockMode.P, LockMode.P, LockMode.P,
        ]
        assert [s.pseudo_pivot for s in steps] == [
            False, False, True, True, False,
        ]
        assert steps[-1].real_pivot

    def test_wcc_is_cumulative(self, cost_registry):
        steps = figure1_trace(
            cost_registry, ["cheap", "cheap", "pricey"], 100.0
        )
        assert steps[0].wcc_after == pytest.approx(3.0)
        assert steps[1].wcc_before == pytest.approx(3.0)
        assert steps[2].wcc_after == pytest.approx(46.0)

    def test_zero_threshold_makes_everything_pivot_like(
        self, cost_registry
    ):
        steps = figure1_trace(cost_registry, ["cheap", "cheap"], 0.0)
        assert all(s.treatment is LockMode.P for s in steps)

    def test_describe_renders(self, cost_registry):
        steps = figure1_trace(cost_registry, ["cheap"], 10.0)
        assert "cheap" in steps[0].describe()


class TestProtocolIntegration:
    """The live protocol's classify_regular matches the symbolic trace."""

    def _process(self, registry, threshold) -> Process:
        program = (
            ProgramBuilder("p", registry, wcc_threshold=threshold)
            .sequence("cheap", "pricey", "cheap")
            .build()
        )
        return Process(pid=1, program=program, timestamp=1)

    def test_matches_symbolic_trace(self, cost_registry):
        from repro.activities.commutativity import ConflictMatrix

        conflicts = ConflictMatrix(cost_registry)
        protocol = ProcessLockManager(cost_registry, conflicts)
        threshold = 40.0
        process = self._process(cost_registry, threshold)
        protocol.attach(process)
        names = ["cheap", "pricey", "cheap"]
        symbolic = figure1_trace(cost_registry, names, threshold)
        for step in symbolic:
            activity = process.launch(step.activity)
            mode = protocol.classify_regular(process, activity)
            assert mode is step.treatment
            process.on_committed(activity)

    def test_cost_based_off_ignores_threshold(self, cost_registry):
        from repro.activities.commutativity import ConflictMatrix

        conflicts = ConflictMatrix(cost_registry)
        protocol = ProcessLockManager(
            cost_registry, conflicts, cost_based=False
        )
        process = self._process(cost_registry, threshold=0.0)
        protocol.attach(process)
        activity = process.launch("cheap")
        assert protocol.classify_regular(
            process, activity
        ) is LockMode.C


@settings(max_examples=50, deadline=None)
@given(
    costs=st.lists(
        st.floats(min_value=0.1, max_value=100.0),
        min_size=1,
        max_size=8,
    ),
    threshold=st.floats(min_value=0.0, max_value=500.0),
)
def test_property_pseudo_pivots_are_sticky(costs, threshold):
    """Once Wcc crosses the threshold, treatment stays P forever.

    Wcc only grows, so Figure 1 can never fall back to C treatment.
    """
    registry = ActivityRegistry()
    names = []
    for index, cost in enumerate(costs):
        name = f"t{index}"
        registry.define_compensatable(
            name, "s", cost=cost, compensation_cost=cost / 2
        )
        names.append(name)
    steps = figure1_trace(registry, names, threshold)
    seen_p = False
    for step in steps:
        if seen_p:
            assert step.treatment is LockMode.P
        if step.treatment is LockMode.P:
            seen_p = True


@settings(max_examples=50, deadline=None)
@given(
    costs=st.lists(
        st.floats(min_value=0.1, max_value=100.0),
        min_size=1,
        max_size=6,
    ),
    picks=st.lists(st.integers(min_value=0, max_value=6), max_size=12),
    threshold=st.floats(min_value=0.0, max_value=500.0),
    cost_based=st.booleans(),
)
def test_property_memoized_classification_matches_reference(
    costs, picks, threshold, cost_based
):
    """``classify_regular`` (the ``WccMemo`` path) decides and charges
    exactly like the un-memoized reference, repeats (memo hits) and
    real pivots included."""
    from repro.activities.activity import Activity
    from repro.activities.commutativity import ConflictMatrix
    from tests.test_core.reference import reference_classify_regular

    registry = ActivityRegistry()
    names = []
    for index, cost in enumerate(costs):
        registry.define_compensatable(
            f"t{index}", "s", cost=cost, compensation_cost=cost / 2
        )
        names.append(f"t{index}")
    registry.define_pivot("pivot", "s", cost=1.0)
    names.append("pivot")
    sequence = [names[pick % len(names)] for pick in picks]
    protocol = ProcessLockManager(
        registry, ConflictMatrix(registry), cost_based=cost_based
    )
    program = (
        ProgramBuilder("p", registry, wcc_threshold=threshold)
        .sequence(names[0])
        .build()
    )
    live = Process(pid=1, program=program, timestamp=1)
    twin = Process(pid=2, program=program, timestamp=2)
    for seq, name in enumerate(sequence):
        activity_type = registry.get(name)
        memoized = protocol.classify_regular(
            live, Activity(activity_type, process_id=1, seq=seq)
        )
        reference = reference_classify_regular(
            protocol, twin, Activity(activity_type, process_id=2, seq=seq)
        )
        assert memoized is reference
        assert live.wcc == twin.wcc
