"""Store facade: repositories, identity, verify, and compaction."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError, WalCorruptionError
from repro.scheduler.events import OUTCOMES, ProcessRecord
from repro.storage import Store
from repro.storage.facade import dumps
from repro.storage.journal import record_to_dict
from tests.test_storage.commit_log import flip_payload_byte


def _open(tmp_path, kind="log"):
    return Store.open(kind, str(tmp_path / "store"))


def _submit(pid: int, program: int = 0) -> dict:
    return {"kind": "submit", "pid": pid, "program": program, "at": 0.0}


def _terminal(pid: int) -> dict:
    record = ProcessRecord(pid=pid, submitted_at=0.0, committed_at=1.5)
    return {
        "kind": "terminal",
        "pid": pid,
        "outcome": "committed",
        "record": record_to_dict(record),
    }


def test_journal_appends_and_reloads(tmp_path):
    store = _open(tmp_path)
    store.journal.append(_submit(1))
    store.journal.append(_terminal(1))
    assert len(store.journal) == 2
    store.close()
    again = _open(tmp_path)
    records = again.journal.records()
    assert [r["kind"] for r in records] == ["submit", "terminal"]
    assert len(again.journal) == 2
    again.close()


def test_snapshot_is_a_single_slot(tmp_path):
    store = _open(tmp_path)
    assert store.snapshots.load() is None
    store.snapshots.save({"version": 1})
    store.snapshots.save({"version": 2})
    assert store.snapshots.load() == {"version": 2}
    store.close()
    again = _open(tmp_path)
    assert again.snapshots.load() == {"version": 2}
    again.close()


def test_meta_ensure_writes_then_verifies(tmp_path):
    store = _open(tmp_path)
    store.meta.ensure({"protocol": "process-locking", "seed": 0})
    store.close()
    again = _open(tmp_path)
    again.meta.ensure({"protocol": "process-locking", "seed": 0})
    with pytest.raises(StorageError, match="seed"):
        again.meta.ensure({"protocol": "process-locking", "seed": 7})
    again.close()


def test_subsystem_repositories_are_namespaced(tmp_path):
    store = _open(tmp_path)
    bank = {"kind": "txn", "writes": {"k": 3}}
    shop = {"kind": "txn", "writes": {"k": None}}
    store.subsystem_data("bank").append(bank)
    store.subsystem_data("shop").append(shop)
    store.journal.append(_submit(1))
    assert store.subsystem_data("bank").records() == [bank]
    assert store.subsystem_data("shop").records() == [shop]
    assert sorted(store.subsystem_names()) == ["bank", "shop"]
    assert store.describe()["subsystems"] == {
        "bank": {"txns": 1, "keys": 1},
        "shop": {"txns": 1, "keys": 1},
    }
    store.close()


def test_verify_reports_clean_and_corrupt(tmp_path):
    store = _open(tmp_path)
    store.journal.append(_submit(1))
    store.close()
    clean = _open(tmp_path)
    report = clean.verify()
    assert report["ok"]
    assert report["namespaces"]["journal"]["records"] == 1
    clean.close()
    # Flip one byte inside the journal's only frame.
    flip_payload_byte(tmp_path / "store", "journal")
    with pytest.raises(WalCorruptionError):
        # heal() at open walks the log and trips on the bad CRC.
        _open(tmp_path)


def test_loads_rejects_undecodable_payloads(tmp_path):
    store = _open(tmp_path)
    store.backend.append("journal", b"\xff\xfenot-json")
    with pytest.raises(WalCorruptionError):
        store.journal.records()
    store.close()


def test_compact_drops_decided_journal_and_rewrites_txns(tmp_path):
    store = _open(tmp_path)
    store.meta.ensure({"world": "w"})
    # Journal: pid 1 decided, pid 2 still pending at the watermark.
    store.journal.append(_submit(1))
    store.journal.append(_submit(2, program=1))
    store.journal.append(_terminal(1))
    store.snapshots.save({"journal_lsn": 3, "processes": []})
    store.journal.append(_submit(3))
    # Subsystem data: three transactions, two versions of "k".
    data = store.subsystem_data("bank")
    data.append({"kind": "txn", "writes": {"k": 1, "j": 5}})
    data.append({"kind": "txn", "writes": {"k": 2}})
    data.append({"kind": "txn", "writes": {"a": None}})
    report = store.compact()
    journal = store.journal.records()
    # Kept: pid 2's undecided pre-watermark submit, pid 1's terminal
    # record (the one home of a finished process) + the tail.
    assert [(r["kind"], r["pid"]) for r in journal] == [
        ("submit", 2),
        ("terminal", 1),
        ("submit", 3),
    ]
    # The snapshot watermark now covers the kept head.
    assert store.snapshots.load()["journal_lsn"] == 2
    # Data is one last-write-wins frame, keys in order.
    assert store.subsystem_data("bank").records() == [
        {"kind": "txn", "writes": {"a": None, "j": 5, "k": 2}}
    ]
    assert report["dropped"]["ssdata/bank"] == 2
    assert report["before"]["journal"] == 4
    assert report["after"]["journal"] == 3
    assert report["dropped"]["journal"] == 1
    store.close()


def _rows(pid: int, first_uid: int, count: int) -> list:
    return [
        ["a", pid, 0, "act00", uid, None]
        for uid in range(first_uid, first_uid + count)
    ]


@pytest.mark.parametrize("kind", ("log",))
def test_compact_rewrites_the_covered_trace_as_one_frame(tmp_path, kind):
    """Superseded rows and the orphan past the watermark go; the rows
    the snapshot covers come back in one frame from position 0."""
    store = _open(tmp_path, kind)
    store.trace.append(0, _rows(1, 1, 3))
    store.trace.append(2, _rows(2, 9, 2))  # supersedes position 2
    store.trace.append(4, _rows(1, 4, 2))
    store.trace.append(5, _rows(3, 20, 4))  # the orphan
    store.snapshots.save({"journal_lsn": 0, "processes": [], "trace_len": 5})
    covered = store.trace.events()[:5]
    report = store.compact()
    assert report["dropped"]["trace"] == 3
    assert store.backend.count("trace") == 1
    assert store.trace.events(5) == covered
    store.close()


def test_compact_of_a_trace_the_snapshot_does_not_reach_empties_it(tmp_path):
    store = _open(tmp_path)
    store.trace.append(0, _rows(1, 1, 3))  # an orphan of a crash
    store.snapshots.save({"journal_lsn": 0, "processes": [], "trace_len": 0})
    store.compact()
    assert store.backend.count("trace") == 0
    assert store.verify()["ok"]
    store.close()


def test_compact_without_snapshot_keeps_journal(tmp_path):
    store = _open(tmp_path)
    store.journal.append(_submit(1))
    store.trace.append(0, _rows(1, 1, 3))
    store.trace.append(1, _rows(2, 9, 2))
    store.compact()
    assert len(store.journal.records()) == 1
    assert store.backend.count("trace") == 2
    store.close()


def test_stats_shape(tmp_path):
    store = _open(tmp_path)
    store.journal.append(_submit(1))
    stats = store.stats()
    assert stats["kind"] == "log"
    assert stats["appends"] == 1
    assert stats["bytes_written"] > 0
    assert stats["healed"] == {}
    store.close()


def test_open_memory_backend(tmp_path, monkeypatch):
    """The volatile ``memory`` kind was removed: asking for it, by
    argument or through ``REPRO_STORE``, is the typed error."""
    with pytest.raises(StorageError, match="'memory'; expected 'log'"):
        Store.open("memory", str(tmp_path))
    monkeypatch.setenv("REPRO_STORE", "memory")
    with pytest.raises(StorageError, match="'memory'; expected 'log'"):
        Store.open(path=str(tmp_path))


# ----------------------------------------------------------------------
# the canonical encoding, byte for byte
# ----------------------------------------------------------------------
def _json_dumps(record) -> bytes:
    """What ``dumps`` is bound to equal: canonical ``json.dumps``."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)

TIMES = st.floats(allow_nan=False)
NAMES = st.lists(st.text(max_size=8), max_size=4)

RECORDS = st.builds(
    ProcessRecord,
    pid=st.integers(min_value=1),
    submitted_at=TIMES,
    committed_at=st.none() | TIMES,
    resubmissions=st.integers(min_value=0),
    compensated_names=NAMES,
    compensated_causes=NAMES,
    outcome=st.none() | st.sampled_from(OUTCOMES),
)


@given(st.dictionaries(st.text(max_size=8), JSON, max_size=6))
def test_dumps_is_canonical_json_dumps(record):
    assert dumps(record) == _json_dumps(record)


@given(RECORDS)
def test_record_to_dict_is_asdict_without_outcome(record):
    expected = asdict(record)
    del expected["outcome"]
    stored = record_to_dict(record)
    assert stored == expected
    assert dumps(stored) == _json_dumps(expected)
    # The lists are copies, as asdict's are.
    assert stored["compensated_names"] is not record.compensated_names
    assert stored["compensated_causes"] is not record.compensated_causes
