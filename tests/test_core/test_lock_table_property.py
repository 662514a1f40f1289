"""Property tests: the incremental indexes agree with the naive oracles.

The lock table is churned through randomized acquire / upgrade /
release histories over a fixed conflict relation; after every step the
incremental structures (blocker index, mode indexes, the compiled
conflict rows) must agree with the recompute-from-scratch reference formulations in
``tests/test_core/reference.py``, and its whole-table
:func:`full_audit` must hold.  The table checks each step itself; the
same churn over a table with one seeded corruption shows those checks
raise at the step that makes it, and only then.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.deadlock import find_wait_cycle
from repro.core.lock_table import LockTable
from repro.core.locks import LockMode
from repro.errors import ProtocolError
from tests.test_core.reference import (
    full_audit,
    naive_blocked_by,
    naive_commit_blockers,
    naive_conflicting_locks,
    naive_conflicting_types,
    waiters_on,
)

TYPE_NAMES = [f"t{i}" for i in range(6)]
PIDS = list(range(1, 6))


class FakeProcess:
    """The table only ever reads ``pid`` from a process."""

    def __init__(self, pid: int) -> None:
        self.pid = pid


def make_relation(
    pairs: list[tuple[str, str]]
) -> tuple[ActivityRegistry, ConflictMatrix]:
    registry = ActivityRegistry()
    for name in TYPE_NAMES:
        registry.define_compensatable(
            name, "shop", cost=1.0, compensation_cost=0.5
        )
    matrix = ConflictMatrix(registry)
    for left, right in pairs:
        matrix.declare_conflict(left, right)
    return registry, matrix


def assert_agrees_with_oracles(
    table: LockTable, processes: dict[int, FakeProcess]
) -> None:
    # full_audit already checks the blocker index against
    # naive_blocked_by and the mode indexes against the entries.
    full_audit(table, live_pids=table.holders())
    for process in processes.values():
        assert table.commit_blockers(process) == naive_commit_blockers(
            table, process
        )
        assert table.on_hold(process) == bool(
            naive_commit_blockers(table, process)
        )
    oracle = naive_blocked_by(table)
    for pid in PIDS:
        assert table.commit_blockers(processes[pid]) == oracle.get(
            pid, set()
        )
        assert waiters_on(table, pid) == frozenset(
            waiter
            for waiter, blockers in oracle.items()
            if pid in blockers
        )
    for name in TYPE_NAMES:
        assert table.conflicting_locks(name) == naive_conflicting_locks(
            table, name
        )
        assert table._conflicts.conflicting_types(name) == frozenset(
            naive_conflicting_types(table._conflicts, name)
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
    st.tuples(st.just("upgrade"), st.integers(min_value=0)),
    st.tuples(st.just("release"), st.sampled_from(PIDS)),
)


class _KeepsRows(dict):
    """A ``blocks`` map whose rows a release cannot pop."""

    def pop(self, pid, default=None):
        return self.get(pid, default)


class _KeepsCLocks(dict):
    """A C-lock index whose rows an upgrade cannot shrink."""

    def __setitem__(self, pid, row):
        if pid not in self:
            super().__setitem__(pid, row)

    def __delitem__(self, pid):
        pass


def _drop_edges(table):
    table._add_block_edge = lambda blocker, waiter: None


def _dangling_blocks(table):
    table._blocks = _KeepsRows()


def _keep_c_locks(table):
    table._c_by_pid = _KeepsCLocks()


#: One seeded corruption per checked step, by the step it breaks.
CORRUPTIONS = {
    "none": lambda table: None,
    "acquire drops a blocker edge": _drop_edges,
    "release_all leaves a dangling blocks row": _dangling_blocks,
    "_note_upgrade skips the C-list removal": _keep_c_locks,
}


class TestLockTableProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        initial_pairs=st.lists(pair_strategy, max_size=8),
        ops=st.lists(op_strategy, min_size=1, max_size=40),
        corruption=st.sampled_from(sorted(CORRUPTIONS)),
    )
    @example(
        initial_pairs=[("t0", "t0")],
        ops=[
            ("acquire", 1, "t0", LockMode.C),
            ("acquire", 2, "t0", LockMode.C),
        ],
        corruption="acquire drops a blocker edge",
    )
    @example(
        initial_pairs=[("t0", "t0")],
        ops=[
            ("acquire", 1, "t0", LockMode.C),
            ("acquire", 2, "t0", LockMode.C),
            ("release", 1),
        ],
        corruption="release_all leaves a dangling blocks row",
    )
    @example(
        initial_pairs=[],
        ops=[("acquire", 1, "t0", LockMode.C), ("upgrade", 0)],
        corruption="_note_upgrade skips the C-list removal",
    )
    def test_indexes_agree_with_oracles_under_churn(
        self, initial_pairs, ops, corruption
    ):
        """A step either raises ``ProtocolError`` on a table the whole
        audit also rejects, or leaves one that every oracle accepts: the
        per-step checks catch what the full oracle catches, at once."""
        __, matrix = make_relation(initial_pairs)
        table = LockTable(matrix)
        CORRUPTIONS[corruption](table)
        processes = {pid: FakeProcess(pid) for pid in PIDS}
        for op in ops:
            kind = op[0]
            try:
                if kind == "acquire":
                    __, pid, name, mode = op
                    table.acquire(processes[pid], name, mode)
                elif kind == "upgrade":
                    entries = [
                        entry
                        for entry in table.iter_entries()
                        if entry.mode is LockMode.C
                    ]
                    if entries:
                        entries[op[1] % len(entries)].upgrade_to_p()
                else:  # release
                    table.release_all(op[1])
            except ProtocolError:
                assert corruption != "none"
                with pytest.raises(ProtocolError):
                    full_audit(table, live_pids=table.holders())
                return
            assert_agrees_with_oracles(table, processes)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(pair_strategy, max_size=10),
        acquires=st.lists(
            st.tuples(
                st.sampled_from(PIDS), st.sampled_from(TYPE_NAMES)
            ),
            max_size=20,
        ),
    )
    def test_release_returns_table_to_oracle_agreement(
        self, pairs, acquires
    ):
        __, matrix = make_relation(pairs)
        table = LockTable(matrix)
        processes = {pid: FakeProcess(pid) for pid in PIDS}
        for pid, name in acquires:
            table.acquire(processes[pid], name, LockMode.C)
        for pid in PIDS:
            table.release_all(pid)
            assert_agrees_with_oracles(table, processes)
        assert table.lock_count == 0
        assert table.commit_blockers(processes[PIDS[0]]) == set()


class TestHasCycleProperty:
    """Whether a wait relation has a cycle agrees with networkx."""

    @settings(max_examples=120, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=24,
        )
    )
    def test_matches_networkx(self, edges):
        adjacency: dict[int, set[int]] = {}
        for src, dst in edges:
            if src != dst:  # waits-for graphs have no self-edges
                adjacency.setdefault(src, set()).add(dst)
        graph = nx.DiGraph()
        for src, dsts in adjacency.items():
            for dst in dsts:
                graph.add_edge(src, dst)
        try:
            nx.find_cycle(graph)
            expected = True
        except nx.NetworkXNoCycle:
            expected = False
        assert (find_wait_cycle(adjacency) is not None) == expected
