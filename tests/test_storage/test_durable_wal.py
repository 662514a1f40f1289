"""Durable subsystem WAL + record store: reload, recovery, validation."""

from __future__ import annotations

import pytest

from repro.errors import SubsystemError, WalCorruptionError
from repro.storage import Store
from repro.subsystems import (
    DurableRecordStore,
    DurableWriteAheadLog,
    SubsystemPool,
    WalKind,
    WriteAheadLog,
    recover_store,
    validate_wal,
)


def _store(tmp_path, kind="log"):
    return Store.open(kind, str(tmp_path / "store"))


def test_durable_wal_reloads_and_continues_lsns(tmp_path):
    store = _store(tmp_path)
    wal = DurableWriteAheadLog(store.subsystem_wal("bank"))
    wal.log_write(1, "k", 0)
    wal.log_commit(1)
    store.close()
    again = _store(tmp_path)
    reloaded = DurableWriteAheadLog(again.subsystem_wal("bank"))
    assert [r.kind for r in reloaded.records] == [
        WalKind.WRITE,
        WalKind.COMMIT,
    ]
    assert reloaded.log_write(2, "k", 5) == 3  # LSNs continue
    again.close()


def test_durable_record_store_replays_last_write_wins(tmp_path):
    store = _store(tmp_path)
    data = DurableRecordStore(store.subsystem_data("bank"))
    data.write("a", 1)
    data.write("a", 2)
    data.write("b", 7)
    data.delete("b")
    store.close()
    again = _store(tmp_path)
    reloaded = DurableRecordStore(again.subsystem_data("bank"))
    assert reloaded.read("a") == 2
    assert reloaded.read("b") == 0  # deleted -> default
    assert "b" not in reloaded
    again.close()


@pytest.mark.parametrize("kind", ("log",))
def test_attach_store_rolls_back_previous_losers(kind, tmp_path):
    store = _store(tmp_path, kind)
    pool = SubsystemPool(store=store)
    subsystem = pool.create("bank", durable=True)
    txn = subsystem.begin()
    txn.write("balance", lambda _: 100)
    txn.commit()
    loser = subsystem.begin()
    loser.write("balance", lambda _: 999)
    # No commit: the process dies here.
    store.flush()
    store.close()

    again = _store(tmp_path, kind)
    pool2 = SubsystemPool()
    subsystem2 = pool2.create("bank", durable=True)
    undone = pool2.attach_store(again)
    assert undone == 1
    assert subsystem2.store.read("balance") == 100
    # The loser got a logged abort, so a further restart is clean.
    assert not subsystem2.wal.losers()
    again.close()
    third = _store(tmp_path, kind)
    pool3 = SubsystemPool(store=third)
    subsystem3 = pool3.create("bank", durable=True)
    assert subsystem3.store.read("balance") == 100
    third.close()


def test_pool_refuses_second_store(tmp_path):
    pool = SubsystemPool(store=_store(tmp_path))
    other = Store.open("memory", str(tmp_path))
    with pytest.raises(SubsystemError):
        pool.attach_store(other)
    # Same store is a no-op.
    assert pool.attach_store(pool.store) == 0


def test_validate_wal_accepts_clean_logs():
    wal = WriteAheadLog()
    wal.log_write(1, "k", 0)
    wal.log_commit(1)
    validate_wal(wal)


def test_validate_wal_rejects_structural_damage():
    wal = WriteAheadLog()
    wal.log_write(1, "k", 0)
    wal._records.append(
        type(wal._records[0])(
            lsn=1, txn_id=2, kind=WalKind.COMMIT
        )  # duplicate LSN breaks append order
    )
    with pytest.raises(WalCorruptionError):
        validate_wal(wal)


def test_validate_wal_rejects_write_without_key():
    wal = WriteAheadLog()
    wal._records.append(
        type(
            "X", (), {}
        )  # not a WalRecord at all
    )
    with pytest.raises(WalCorruptionError):
        validate_wal(wal)


def test_recover_store_surfaces_typed_corruption(tmp_path):
    store = _store(tmp_path)
    repo = store.subsystem_wal("bank")
    store.backend.append("sswal/bank", b'["w","not-an-int",1,"k",0]')
    with pytest.raises(WalCorruptionError) as caught:
        DurableWriteAheadLog(repo)
    assert caught.value.namespace == "sswal/bank"
    store.close()


def test_terminal_records_carry_no_dead_fields(tmp_path):
    """``commit`` / ``abort`` records have no key and no before-image;
    they are not written, and the log reads back the same."""
    store = _store(tmp_path)
    wal = DurableWriteAheadLog(store.subsystem_wal("bank"))
    wal.log_write(1, "k", {"balance": 3})
    wal.log_commit(1)
    wal.log_write(2, "k", None)
    wal.log_abort(2)
    assert store.subsystem_wal("bank").records() == [
        {"lsn": 1, "txn_id": 1, "kind": "write", "key": "k",
         "before": {"balance": 3}},
        {"lsn": 2, "txn_id": 1, "kind": "commit"},
        {"lsn": 3, "txn_id": 2, "kind": "write", "key": "k",
         "before": None},
        {"lsn": 4, "txn_id": 2, "kind": "abort"},
    ]
    reloaded = DurableWriteAheadLog(store.subsystem_wal("bank"))
    assert reloaded.records == wal.records
    # A record that still spells the two defaults out reads the same.
    old = store.subsystem_wal("old")
    old.append({"lsn": 2, "txn_id": 1, "kind": "commit", "key": "",
                "before": None})
    assert DurableWriteAheadLog(old).records == [wal.records[1]]
    store.close()


def test_recover_store_validates_before_undoing():
    from repro.subsystems import RecordStore

    wal = WriteAheadLog()
    wal.log_write(0, "k", 1)  # txn_id 0 is structurally invalid
    with pytest.raises(WalCorruptionError):
        recover_store(RecordStore(), wal)
