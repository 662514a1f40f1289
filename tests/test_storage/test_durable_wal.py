"""Durable subsystems: one redo frame per committed transaction."""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DataDeadlockAvoided,
    SubsystemError,
    SubsystemWouldBlock,
    WalCorruptionError,
)
from repro.storage import Store
from repro.subsystems import (
    DurableRecordStore,
    SubsystemPool,
    TransactionState,
)
from tests.test_storage.commit_log import LOG_FILE


def _store(tmp_path, kind="log"):
    return Store.open(kind, str(tmp_path / "store"))


def test_durable_record_store_replays_last_write_wins(tmp_path):
    store = _store(tmp_path)
    data = DurableRecordStore(store.subsystem_data("bank"))
    data.commit({"a": 1})
    data.commit({"a": 2, "b": 7})
    assert store.subsystem_data("bank").records() == [
        {"kind": "txn", "writes": {"a": 1}},
        {"kind": "txn", "writes": {"a": 2, "b": 7}},
    ]
    store.close()
    again = _store(tmp_path)
    reloaded = DurableRecordStore(again.subsystem_data("bank"))
    assert reloaded.snapshot() == {"a": 2, "b": 7}
    again.close()


@pytest.mark.parametrize("kind", ("log",))
def test_a_previous_incarnations_loser_never_reaches_disk(kind, tmp_path):
    store = _store(tmp_path, kind)
    pool = SubsystemPool(store=store)
    subsystem = pool.create("bank")
    txn = subsystem.begin()
    txn.write("balance", lambda _: 100)
    txn.commit()
    loser = subsystem.begin()
    loser.write("balance", lambda _: 999)
    # No commit: the process dies here.
    store.flush()
    store.close()

    again = _store(tmp_path, kind)
    assert len(again.subsystem_data("bank")) == 1  # the winner's frame
    pool2 = SubsystemPool()
    subsystem2 = pool2.create("bank")
    pool2.attach_store(again)
    assert subsystem2.store.snapshot() == {"balance": 100}
    again.close()


def test_read_only_and_aborted_transactions_append_nothing(tmp_path):
    store = _store(tmp_path)
    subsystem = SubsystemPool(store=store).create("bank")
    reader = subsystem.begin()
    reader.read("balance")
    reader.commit()
    doomed = subsystem.begin()
    doomed.write("balance", lambda _: 5)
    doomed.abort()
    assert len(store.subsystem_data("bank")) == 0
    assert subsystem.store.read("balance") == 0
    store.close()


def test_records_held_before_the_attach_go_in_as_one_frame(tmp_path):
    pool = SubsystemPool()
    subsystem = pool.create("bank")
    txn = subsystem.begin()
    txn.write("a", lambda _: 1)
    txn.write("b", lambda _: 2)
    txn.commit()
    store = _store(tmp_path)
    pool.attach_store(store)
    assert store.subsystem_data("bank").records() == [
        {"kind": "txn", "writes": {"a": 1, "b": 2}}
    ]
    store.close()


def test_pool_refuses_second_store(tmp_path):
    pool = SubsystemPool(store=_store(tmp_path))
    other = Store.open("log", str(tmp_path / "other"))
    with pytest.raises(SubsystemError):
        pool.attach_store(other)
    # Same store is a no-op.
    store = pool.store
    pool.attach_store(store)
    assert pool.store is store


def test_a_malformed_txn_frame_is_typed_corruption(tmp_path):
    store = _store(tmp_path)
    store.backend.append("ssdata/bank", b'["t",[["k",1]]]')
    with pytest.raises(WalCorruptionError) as caught:
        DurableRecordStore(store.subsystem_data("bank"))
    assert caught.value.namespace == "ssdata/bank"
    store.close()


# ----------------------------------------------------------------------
# any byte cut of the log keeps whole transactions
# ----------------------------------------------------------------------
KEYS = ("x", "y")

#: ``(op, slot, key, value)``: ``w`` / ``r`` / ``c`` / ``a`` on the
#: transaction in ``slot`` (begun on its first read or write), or ``!``,
#: a crash of the subsystem (``simulate_crash_and_recover``).
STEPS = st.lists(
    st.tuples(
        st.sampled_from("wwrca!"),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(KEYS),
        st.none() | st.integers(min_value=0, max_value=9),
    ),
    max_size=14,
)


@settings(max_examples=25, deadline=None)
@given(STEPS)
@example(
    [("w", 0, "x", 1), ("c", 0, "x", 0), ("r", 1, "x", 0), ("c", 1, "x", 0)]
)
@example(
    [("w", 0, "x", 1), ("w", 0, "y", 2), ("a", 0, "x", 0), ("c", 0, "x", 0)]
    + [("w", 1, "y", 3), ("w", 1, "x", 4), ("c", 1, "x", 0)]
)
@example([("w", 0, "x", 1), ("w", 0, "x", 2), ("c", 0, "x", 0)])
@example(
    [("w", 0, "y", None), ("c", 0, "x", 0), ("w", 1, "x", 4), ("!", 0, "x", 0)]
)
def test_every_byte_cut_holds_exactly_the_whole_transactions(steps):
    """Stepwise ``begin`` / ``write`` / ``commit`` / ``abort`` with
    crashes mixed in, then a fresh pool on every byte cut of the commit
    log: it holds the last-write-wins state of the transactions whose
    commit returned within the cut, nothing else.  A read-only commit,
    an abort and a crash append nothing."""
    with tempfile.TemporaryDirectory() as root:
        whole = os.path.join(root, "whole")
        store = Store.open("log", whole, fsync="never")
        log = os.path.join(whole, LOG_FILE)
        subsystem = SubsystemPool(store=store).create("s")
        slots: dict[int, object] = {}
        written: dict[int, dict] = {}
        #: ``(log size as the commit returned, its final writes)``.
        commits: list[tuple[int, dict]] = []

        def size() -> int:
            return os.path.getsize(log) if os.path.exists(log) else 0

        for op, slot, key, value in steps:
            before = size()
            txn = slots.get(slot)
            active = (
                txn is not None and txn.state is TransactionState.ACTIVE
            )
            if op == "!":
                subsystem.simulate_crash_and_recover()
            elif op in "wr":
                if not active:
                    txn = slots[slot] = subsystem.begin()
                    written[slot] = {}
                try:
                    if op == "w":
                        txn.write(key, lambda _old, value=value: value)
                        written[slot][key] = value
                    else:
                        txn.read(key)
                except (SubsystemWouldBlock, DataDeadlockAvoided):
                    txn.abort()
            elif active and op == "c":
                txn.commit()
                if written[slot]:
                    commits.append((size(), written[slot]))
            elif active:
                txn.abort()
            wrote = op == "c" and active and bool(written[slot])
            assert (size() != before) == wrote
        store.close()
        data = open(log, "rb").read() if os.path.exists(log) else b""
        cut_root = os.path.join(root, "cut")
        os.mkdir(cut_root)
        for cut in range(len(data) + 1):
            with open(os.path.join(cut_root, LOG_FILE), "wb") as out:
                out.write(data[:cut])
            expected: dict = {}
            for end, writes in commits:
                if end <= cut:
                    expected.update(writes)
            again = Store.open("log", cut_root, fsync="never")
            fresh = SubsystemPool(store=again).create("s")
            assert fresh.store.snapshot() == expected, cut
            again.close()
