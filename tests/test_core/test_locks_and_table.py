"""Unit tests for lock primitives and the ordered lock table."""

import pytest

from repro.core.lock_table import LockTable
from repro.analysis.exhibits import derive_lock_compatibility
from repro.core.locks import LockMode
from repro.errors import ProtocolError
from tests.conftest import make_process
from tests.test_core.reference import full_audit


class TestTable2Function:
    """The live protocol's held/acquired compatibility is Table 2's."""

    def test_c_behind_c_shares(self):
        assert derive_lock_compatibility()[LockMode.C, LockMode.C]

    def test_p_behind_c_is_exclusive(self):
        assert not derive_lock_compatibility()[LockMode.C, LockMode.P]

    def test_c_behind_p_shares(self):
        assert derive_lock_compatibility()[LockMode.P, LockMode.C]

    def test_p_behind_p_is_exclusive(self):
        assert not derive_lock_compatibility()[LockMode.P, LockMode.P]


@pytest.fixture
def table(conflicts) -> LockTable:
    return LockTable(conflicts)


@pytest.fixture
def two_processes(protocol, flat_program):
    older = make_process(protocol, flat_program, pid=1)
    younger = make_process(protocol, flat_program, pid=2)
    return older, younger


class TestLockTable:
    def test_positions_are_globally_increasing(self, table, two_processes):
        older, younger = two_processes
        first = table.acquire(older, "reserve", LockMode.C)
        second = table.acquire(younger, "wrap", LockMode.C)
        assert first.position < second.position

    def test_conflicting_locks_cover_related_types(
        self, table, two_processes
    ):
        older, younger = two_processes
        table.acquire(older, "reserve", LockMode.C)
        hits = table.conflicting_locks("wrap", exclude_pid=younger.pid)
        assert [e.type_name for e in hits] == ["reserve"]

    def test_self_conflict_included(self, table, two_processes):
        older, younger = two_processes
        table.acquire(older, "reserve", LockMode.C)
        hits = table.conflicting_locks("reserve", exclude_pid=2)
        assert len(hits) == 1

    def test_non_conflicting_type_invisible(self, table, two_processes):
        older, __ = two_processes
        table.acquire(older, "ship", LockMode.C)
        assert table.conflicting_locks("reserve") == []

    def test_exclude_pid(self, table, two_processes):
        older, __ = two_processes
        table.acquire(older, "reserve", LockMode.C)
        assert table.conflicting_locks("reserve", exclude_pid=1) == []

    def test_release_all(self, table, two_processes):
        older, younger = two_processes
        table.acquire(older, "reserve", LockMode.C)
        table.acquire(older, "wrap", LockMode.C)
        released = table.release_all(older.pid)
        assert len(released) == 2
        assert table.lock_count == 0
        assert table.locks_of(older.pid) == ()

    def test_commit_blockers_by_position(self, table, two_processes):
        older, younger = two_processes
        table.acquire(older, "reserve", LockMode.C)
        table.acquire(younger, "reserve", LockMode.C)
        assert table.commit_blockers(younger) == {older.pid}
        assert table.commit_blockers(older) == set()
        assert table.on_hold(younger)
        assert not table.on_hold(older)

    def test_commit_blockers_cleared_by_release(
        self, table, two_processes
    ):
        older, younger = two_processes
        table.acquire(older, "reserve", LockMode.C)
        table.acquire(younger, "reserve", LockMode.C)
        table.release_all(older.pid)
        assert table.commit_blockers(younger) == set()

    def test_c_locks_of_and_upgrade(self, table, two_processes):
        older, __ = two_processes
        entry = table.acquire(older, "reserve", LockMode.C)
        assert table.c_locks_of(older.pid) == (entry,)
        entry.upgrade_to_p()
        assert entry.mode is LockMode.P
        assert entry.converted
        assert table.c_locks_of(older.pid) == ()
        assert table.p_lock_holders() == {older.pid}

    def test_entry_for_activity(self, table, two_processes):
        older, __ = two_processes
        entry = table.acquire(older, "reserve", LockMode.C,
                              activity_uid=77)
        assert table.entry_for_activity(older.pid, 77) is entry
        assert table.entry_for_activity(older.pid, 99) is None

    def test_invariants_catch_foreign_locks(self, table, two_processes):
        older, __ = two_processes
        table.acquire(older, "reserve", LockMode.C)
        with pytest.raises(ProtocolError):
            full_audit(table, live_pids=[])  # nobody is live

    def test_invariants_pass_for_live_holder(self, table, two_processes):
        older, __ = two_processes
        table.acquire(older, "reserve", LockMode.C)
        full_audit(table, live_pids=[older.pid])
