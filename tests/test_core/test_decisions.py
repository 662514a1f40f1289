"""Unit tests for decision objects and protocol statistics."""

from dataclasses import fields

import pytest

from repro.core.decisions import (
    AbortVictims,
    Defer,
    Grant,
    ProtocolStats,
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


class TestProtocolStats:
    def test_keeps_only_the_counters_that_are_read(self):
        """Grants, conversions, commits, aborts and per-reason defers
        are counted by the metrics registry and the series bank."""
        assert [spec.name for spec in fields(ProtocolStats)] == [
            "defers",
            "cascades_requested",
            "cascade_victims",
        ]

    def test_fresh_stats_are_zero(self):
        stats = ProtocolStats()
        assert stats.defers == 0
        assert stats.cascades_requested == 0
        assert stats.cascade_victims == 0
