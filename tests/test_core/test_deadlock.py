"""Tests for the wait-cycle search and cycle-victim choice."""

import pytest

from repro.core.deadlock import choose_cycle_victim, find_wait_cycle
from repro.errors import ProtocolError


class TestFindWaitCycle:
    def test_no_cycle_initially(self):
        assert find_wait_cycle({}) is None

    def test_simple_cycle_detected(self):
        cycle = find_wait_cycle({1: {2}, 2: {1}})
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_chain_is_acyclic(self):
        assert find_wait_cycle({3: {2}, 2: {1}}) is None

    def test_self_edges_ignored(self):
        assert find_wait_cycle({1: {1, 2}}) is None
        assert set(find_wait_cycle({1: {1, 2}, 2: {1}})) == {1, 2}

    def test_three_cycle(self):
        assert set(find_wait_cycle({1: {2}, 2: {3}, 3: {1}})) == {1, 2, 3}


class TestVictimChoice:
    def test_youngest_running_chosen(self):
        victim = choose_cycle_victim(
            [1, 2, 3],
            timestamps={1: 10, 2: 30, 3: 20},
            running={1, 2, 3},
        )
        assert victim == 2

    def test_non_running_excluded(self):
        victim = choose_cycle_victim(
            [1, 2, 3],
            timestamps={1: 10, 2: 30, 3: 20},
            running={1, 3},
        )
        assert victim == 3

    def test_no_running_member_raises(self):
        with pytest.raises(ProtocolError):
            choose_cycle_victim(
                [1, 2], timestamps={1: 1, 2: 2}, running=set()
            )
