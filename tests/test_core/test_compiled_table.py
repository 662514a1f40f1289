"""Property tests: the compiled-plane lock table vs its naive references.

The compiled conflict plane replaced frozenset adjacency iteration in
every hot lock-table query with bitmask ANDs over ``_live_mask`` /
``_pid_type_masks``.  These tests churn a table through randomized
acquire / release / state-flip histories and assert, after every step,
that

* the live-type and per-process bitmasks match a recompute from the
  primary per-type/per-pid lists, and
* every bitmask query agrees with its recompute-from-the-declared-pairs
  reference in ``tests/test_core/reference.py``.

The relation itself is fixed once the table holds it
(``test_compiled_conflicts.py`` pins the refusals).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.lock_table import LockTable
from repro.core.locks import LockMode
from repro.errors import CommutativityError
from repro.process.state import ProcessState
from tests.test_core.reference import (
    full_audit,
    naive_blocker_pids,
    naive_conflicting_locks,
    naive_probe_blocked,
)

TYPE_NAMES = [f"t{i}" for i in range(6)]
PIDS = list(range(1, 6))
ABORTING = ProcessState.ABORTING


class FakeProcess:
    """Just the fields the table and the probe queries read."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.timestamp = pid  # fixed, distinct ages
        self.state = ProcessState.RUNNING


def make_table(
    pairs: list[tuple[str, str]]
) -> tuple[ConflictMatrix, LockTable]:
    registry = ActivityRegistry()
    for name in TYPE_NAMES:
        registry.define_compensatable(
            name, "shop", cost=1.0, compensation_cost=0.5
        )
    matrix = ConflictMatrix(registry)
    for left, right in pairs:
        matrix.declare_conflict(left, right)
    return matrix, LockTable(matrix)


def recomputed_masks(table: LockTable) -> tuple[int, dict[int, int]]:
    index = table._plane.index
    live = 0
    for type_name in table._by_type:
        live |= 1 << index[type_name]
    pid_masks = {}
    for pid, entries in table._by_pid.items():
        mask = 0
        for entry in entries:
            mask |= 1 << index[entry.type_name]
        pid_masks[pid] = mask
    return live, pid_masks


def assert_agrees_with_references(
    table: LockTable, processes: dict[int, "FakeProcess"]
) -> None:
    # full_audit checks the masks against the lists and the compiled
    # rows against the declared pairs...
    full_audit(table, live_pids=table.holders())
    # ...and this re-derives the masks independently of it.
    live, pid_masks = recomputed_masks(table)
    assert table._live_mask == live
    assert table._pid_type_masks == pid_masks
    for name in TYPE_NAMES:
        for pid in PIDS:
            process = processes[pid]
            assert table.conflicting_locks(
                name, exclude_pid=pid
            ) == naive_conflicting_locks(table, name, pid)
            assert table.probe_blocked(
                name, pid, process.timestamp, ABORTING
            ) == naive_probe_blocked(
                table, name, pid, process.timestamp, ABORTING
            )
            # Acquire-time blocker discovery: the foreign pids the
            # bitmask AND finds are the adjacency scan's, exactly.
            held = table._pid_type_masks
            mask = table._plane.masks[table._plane.id_of(name)]
            assert {
                other
                for other, bits in held.items()
                if other != pid and bits & mask
            } == naive_blocker_pids(table, name, pid)
        assert table.conflicting_locks(name) == (
            naive_conflicting_locks(table, name)
        )


pair_strategy = st.tuples(
    st.sampled_from(TYPE_NAMES), st.sampled_from(TYPE_NAMES)
)

op_strategy = st.one_of(
    st.tuples(
        st.just("acquire"),
        st.sampled_from(PIDS),
        st.sampled_from(TYPE_NAMES),
        st.sampled_from([LockMode.C, LockMode.P]),
    ),
    st.tuples(st.just("release"), st.sampled_from(PIDS)),
    st.tuples(
        st.just("flip_state"),
        st.sampled_from(PIDS),
        st.sampled_from(
            [ProcessState.RUNNING, ProcessState.ABORTING,
             ProcessState.COMPLETING]
        ),
    ),
)


class TestCompiledTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        initial_pairs=st.lists(pair_strategy, max_size=8),
        ops=st.lists(op_strategy, min_size=1, max_size=40),
    )
    def test_masks_and_queries_agree_under_churn(
        self, initial_pairs, ops
    ):
        _, table = make_table(initial_pairs)
        processes = {pid: FakeProcess(pid) for pid in PIDS}
        for op in ops:
            kind = op[0]
            if kind == "acquire":
                __, pid, name, mode = op
                table.acquire(processes[pid], name, mode)
            elif kind == "release":
                table.release_all(op[1])
            else:  # flip_state
                processes[op[1]].state = op[2]
            assert_agrees_with_references(table, processes)

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(pair_strategy, max_size=10),
        acquires=st.lists(
            st.tuples(
                st.sampled_from(PIDS), st.sampled_from(TYPE_NAMES)
            ),
            max_size=20,
        ),
    )
    def test_release_drains_masks(self, pairs, acquires):
        _, table = make_table(pairs)
        processes = {pid: FakeProcess(pid) for pid in PIDS}
        for pid, name in acquires:
            table.acquire(processes[pid], name, LockMode.C)
        for pid in PIDS:
            table.release_all(pid)
            assert_agrees_with_references(table, processes)
        assert table._live_mask == 0
        assert table._pid_type_masks == {}

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(pair_strategy, max_size=8), extra=pair_strategy)
    def test_a_held_relation_refuses_change(self, pairs, extra):
        """Once a table holds the plane, neither a closure nor a new
        pair reaches it: both raise, and the table still agrees with
        the references over the relation it was built on."""
        matrix, table = make_table(pairs)
        processes = {pid: FakeProcess(pid) for pid in PIDS}
        for pid in PIDS[:3]:
            table.acquire(
                processes[pid], TYPE_NAMES[pid % 3], LockMode.C
            )
        plane, held = table._plane, matrix.pairs()
        with pytest.raises(CommutativityError, match="already compiled"):
            matrix.close_perfect()
        with pytest.raises(CommutativityError, match="already compiled"):
            matrix.declare_conflict(*extra)
        assert matrix.pairs() == held
        assert matrix.compiled() is plane
        assert_agrees_with_references(table, processes)
