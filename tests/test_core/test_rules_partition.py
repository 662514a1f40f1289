"""Unit tests for the holder-partition helper (rules.py)."""

import pytest

from repro.core.locks import LockEntry, LockMode
from repro.core.rules import partition_holders
from repro.process.instance import Process
from repro.process.state import ProcessState
from tests.conftest import make_process


@pytest.fixture
def trio(protocol, flat_program):
    """Three processes with ascending timestamps."""
    return [
        make_process(protocol, flat_program, pid=pid)
        for pid in (1, 2, 3)
    ]


def entry(process: Process, mode: LockMode, position: int) -> LockEntry:
    return LockEntry(
        process=process,
        type_name="reserve",
        mode=mode,
        position=position,
    )


class TestPartition:
    def test_older_and_younger_split(self, trio):
        p1, p2, p3 = trio
        partition = partition_holders(
            p2,
            [entry(p1, LockMode.C, 1), entry(p3, LockMode.C, 2)],
        )
        assert partition.older_c == {1}
        assert partition.younger_running_c == {3}
        assert partition.older_running == {1}
        assert partition.older_running_c == {1}

    def test_modes_split(self, trio):
        p1, p2, p3 = trio
        partition = partition_holders(
            p2,
            [entry(p1, LockMode.P, 1), entry(p3, LockMode.P, 2)],
        )
        assert partition.older_p == {1}
        assert partition.younger_running_p == {3}
        assert partition.older_c == set()
        assert partition.older_p | partition.younger_running_p == {1, 3}

    def test_aborting_holders_bucketed_regardless_of_age(self, trio):
        p1, p2, p3 = trio
        p1.begin_abort()
        p3.begin_abort()
        partition = partition_holders(
            p2,
            [entry(p1, LockMode.C, 1), entry(p3, LockMode.P, 2)],
        )
        assert partition.aborting == {1, 3}
        assert partition.older_c == set()
        assert partition.younger_running_p == set()

    def test_younger_completing_bucket(self, trio):
        p1, p2, p3 = trio
        p3.state = ProcessState.COMPLETING
        partition = partition_holders(p2, [entry(p3, LockMode.C, 5)])
        assert partition.younger_completing == {3}
        assert partition.younger_running_c == set()

    def test_older_completing_counts_as_older(self, trio):
        p1, p2, p3 = trio
        p1.state = ProcessState.COMPLETING
        partition = partition_holders(p2, [entry(p1, LockMode.C, 1)])
        assert partition.older_c == {1}
        assert partition.younger_completing == set()
        # Completing is not running: not a wound candidate.
        assert partition.older_running == set()

    def test_empty(self, trio):
        __, p2, __ = trio
        partition = partition_holders(p2, [])
        assert partition.empty

    def test_non_empty(self, trio):
        p1, p2, __ = trio
        partition = partition_holders(p2, [entry(p1, LockMode.C, 1)])
        assert not partition.empty

    def test_same_holder_in_multiple_buckets(self, trio):
        p1, p2, __ = trio
        partition = partition_holders(
            p2,
            [entry(p1, LockMode.C, 1), entry(p1, LockMode.P, 2)],
        )
        assert partition.older_c == {1}
        assert partition.older_p == {1}
