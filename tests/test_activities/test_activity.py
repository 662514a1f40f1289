"""Unit tests for the activity model (Table 1 constraints)."""

import math

import pytest

from repro.activities.activity import (
    INFINITE_COST,
    Activity,
    ActivityType,
    TerminationClass,
)
from repro.errors import ActivityModelError


def make(name="a", subsystem="s", **kwargs) -> ActivityType:
    return ActivityType(name=name, subsystem=subsystem, **kwargs)


class TestTable1Constraints:
    def test_regular_activity_needs_positive_cost(self):
        with pytest.raises(ActivityModelError):
            make(cost=0.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ActivityModelError):
            make(cost=-1.0)

    def test_infinite_cost_rejected(self):
        with pytest.raises(ActivityModelError):
            make(cost=math.inf)

    def test_nan_cost_rejected(self):
        with pytest.raises(ActivityModelError):
            make(cost=math.nan)

    def test_failure_probability_below_one(self):
        with pytest.raises(ActivityModelError):
            make(cost=1.0, failure_probability=1.0)

    def test_failure_probability_non_negative(self):
        with pytest.raises(ActivityModelError):
            make(cost=1.0, failure_probability=-0.1)

    def test_retriable_must_have_zero_failure_probability(self):
        with pytest.raises(ActivityModelError):
            make(cost=1.0, retriable=True, failure_probability=0.2)

    def test_retriable_with_zero_probability_ok(self):
        activity = make(cost=1.0, retriable=True)
        assert activity.retriable
        assert activity.failure_probability == 0.0

    def test_compensating_activity_may_cost_zero(self):
        activity = make(
            cost=0.0, retriable=True, is_compensation=True
        )
        assert activity.cost == 0.0

    def test_compensating_activity_must_be_retriable(self):
        with pytest.raises(ActivityModelError):
            make(cost=0.5, is_compensation=True, retriable=False)

    def test_compensating_activity_not_compensatable(self):
        with pytest.raises(ActivityModelError):
            make(
                cost=0.5,
                is_compensation=True,
                retriable=True,
                compensated_by="other",
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ActivityModelError):
            ActivityType(name="", subsystem="s", cost=1.0)

    def test_empty_subsystem_rejected(self):
        with pytest.raises(ActivityModelError):
            ActivityType(name="a", subsystem="", cost=1.0)


class TestTerminationClassification:
    def test_compensatable(self):
        activity = make(cost=1.0, compensated_by="a^-1")
        assert activity.termination_class is TerminationClass.COMPENSATABLE
        assert activity.compensatable
        assert not activity.point_of_no_return

    def test_pivot(self):
        activity = make(cost=1.0)
        assert activity.termination_class is TerminationClass.PIVOT
        assert activity.point_of_no_return
        assert activity.compensation_cost == INFINITE_COST

    def test_retriable_non_compensatable_is_point_of_no_return(self):
        activity = make(cost=1.0, retriable=True)
        assert activity.termination_class is TerminationClass.RETRIABLE
        assert activity.point_of_no_return

    def test_retriable_and_compensatable_is_orthogonal(self):
        activity = make(cost=1.0, retriable=True, compensated_by="a^-1")
        assert activity.compensatable
        assert activity.retriable
        assert not activity.point_of_no_return
        assert (
            activity.termination_class is TerminationClass.COMPENSATABLE
        )

    def test_compensating(self):
        activity = make(cost=0.0, retriable=True, is_compensation=True)
        assert activity.termination_class is TerminationClass.COMPENSATING
        assert not activity.point_of_no_return


class TestActivityInvocations:
    def test_uids_are_unique(self):
        activity_type = make(cost=1.0)
        first = Activity(activity_type, process_id=1, seq=0)
        second = Activity(activity_type, process_id=1, seq=1)
        assert first.uid != second.uid

    def test_compensation_flag(self):
        activity_type = make(cost=1.0)
        regular = Activity(activity_type, process_id=1, seq=0)
        comp = Activity(
            activity_type, process_id=1, seq=1, compensates=regular.uid
        )
        assert not regular.is_compensation
        assert comp.is_compensation

    def test_name_mirrors_type(self):
        activity_type = make(name="book", cost=1.0)
        invocation = Activity(activity_type, process_id=2, seq=0)
        assert invocation.name == "book"
