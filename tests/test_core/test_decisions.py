"""Unit tests for decision objects."""

import pytest

from repro.core.decisions import (
    AbortVictims,
    Defer,
    Grant,
    SelfAbort,
)


class TestDecisionObjects:
    def test_grant_defaults_to_no_locks(self):
        assert Grant().locks == ()

    def test_defer_requires_waiters(self):
        with pytest.raises(ValueError):
            Defer(wait_for=frozenset(), reason="empty")

    def test_abort_victims_requires_victims(self):
        with pytest.raises(ValueError):
            AbortVictims(victims=frozenset())

    def test_decisions_are_immutable(self):
        defer = Defer(wait_for=frozenset({1}), reason="x")
        with pytest.raises(AttributeError):
            defer.reason = "y"

    def test_self_abort_carries_reason(self):
        assert SelfAbort(reason="wait-die").reason == "wait-die"

