"""Backend contract of the one backend, the append-only log (``log``)."""

from __future__ import annotations

import pytest

from repro.errors import StorageError, WalCorruptionError
from repro.storage import (
    AppendLogBackend,
    Store,
    encode_frame,
)
from tests.test_storage.commit_log import (
    flip_payload_byte,
    log_path,
    namespace_bytes,
)


def _make(kind: str, tmp_path):
    assert kind == "log"
    return AppendLogBackend(str(tmp_path / "store"))


#: The store kinds there are.
KINDS = ("log",)


@pytest.mark.parametrize("kind", KINDS)
def test_append_read_roundtrip(kind, tmp_path):
    backend = _make(kind, tmp_path)
    backend.append("journal", b"one")
    backend.append("journal", b"two")
    backend.append("ssdata/bank", b"iii")
    assert backend.read_all("journal") == [b"one", b"two"]
    assert backend.read_all("ssdata/bank") == [b"iii"]
    assert backend.read_all("absent") == []
    assert set(backend.namespaces()) == {"journal", "ssdata/bank"}
    assert backend.appends == 3
    backend.close()


@pytest.mark.parametrize("kind", KINDS)
def test_replace_swaps_whole_namespace(kind, tmp_path):
    backend = _make(kind, tmp_path)
    backend.append("snapshot", b"old")
    backend.replace("snapshot", [b"new"])
    assert backend.read_all("snapshot") == [b"new"]
    backend.close()


@pytest.mark.parametrize("kind", ("log",))
def test_data_survives_reopen(kind, tmp_path):
    backend = _make(kind, tmp_path)
    backend.append("journal", b"durable")
    backend.close()
    again = _make(kind, tmp_path)
    assert again.read_all("journal") == [b"durable"]
    again.append("journal", b"more")
    again.close()
    third = _make(kind, tmp_path)
    assert third.read_all("journal") == [b"durable", b"more"]
    third.close()


@pytest.mark.parametrize("kind", ("log",))
def test_close_is_idempotent(kind, tmp_path):
    backend = _make(kind, tmp_path)
    backend.append("journal", b"x")
    backend.close()
    backend.close()
    backend.flush()


def test_log_heal_truncates_torn_tail(tmp_path):
    backend = AppendLogBackend(str(tmp_path / "store"))
    backend.append("journal", b"keep-me")
    backend.close()
    path = log_path(tmp_path / "store")
    pristine = path.read_bytes()
    path.write_bytes(pristine + encode_frame(b"torn", b"\x01")[:-2])
    again = AppendLogBackend(str(tmp_path / "store"))
    healed = again.heal()
    assert healed == {"commit": len(encode_frame(b"torn", b"\x01")) - 2}
    assert again.read_all("journal") == [b"keep-me"]
    again.close()
    assert path.read_bytes() == pristine


def test_log_corrupt_frame_raises_typed_error(tmp_path):
    backend = AppendLogBackend(str(tmp_path / "store"))
    backend.append("journal", b"payload")
    backend.close()
    flip_payload_byte(tmp_path / "store", "journal")
    again = AppendLogBackend(str(tmp_path / "store"))
    with pytest.raises(WalCorruptionError):
        again.read_all("journal")


def test_log_namespace_maps_to_filesystem_safely(tmp_path):
    """Appended namespaces share the commit log; only a replaced one
    (a slot) gets a file, its ``/`` spelled ``@``."""
    backend = AppendLogBackend(str(tmp_path / "store"))
    backend.append("ssdata/bank", b"x")
    backend.append("journal", b"y")
    backend.replace("slot/one", [b"z"])
    backend.close()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
        "commit.log",
        "slot@one.log",
    ]
    again = AppendLogBackend(str(tmp_path / "store"))
    assert again.read_all("ssdata/bank") == [b"x"]
    assert again.read_all("slot/one") == [b"z"]
    assert again.namespaces() == ["journal", "slot/one", "ssdata/bank"]
    with pytest.raises(StorageError, match="swapped slot"):
        again.append("slot/one", b"no")
    again.close()


def test_log_rejects_unsafe_namespaces(tmp_path):
    backend = AppendLogBackend(str(tmp_path / "store"))
    with pytest.raises(StorageError):
        backend.append("evil@ns", b"x")
    with pytest.raises(StorageError):
        backend.append(".hidden", b"x")
    with pytest.raises(StorageError):
        backend.replace("commit", [b"x"])  # the log's own file name


def test_fsync_policies_count_syncs(tmp_path):
    always = AppendLogBackend(
        str(tmp_path / "always"), fsync="always"
    )
    always.append("journal", b"a")
    always.append("journal", b"b")
    assert always.fsyncs == 2
    always.close()

    batch = AppendLogBackend(
        str(tmp_path / "batch"), fsync="batch", sync_every=3
    )
    for index in range(7):
        batch.append("journal", b"%d" % index)
    assert batch.fsyncs == 2  # at 3 and 6
    batch.flush()
    assert batch.fsyncs == 3  # the straggler
    batch.close()

    never = AppendLogBackend(str(tmp_path / "never"), fsync="never")
    never.append("journal", b"a")
    never.flush()
    assert never.fsyncs == 0
    never.close()


def test_unbuffered_append_is_visible_without_close(tmp_path):
    """kill -9 semantics: bytes reach the file on append, not close."""
    backend = AppendLogBackend(str(tmp_path / "store"), fsync="never")
    backend.append("journal", b"ack-this")
    assert namespace_bytes(tmp_path / "store", "journal") == encode_frame(
        b"ack-this"
    )
    backend.close()


def test_open_backend_dispatch(tmp_path):
    """``Store.open`` builds the log backend for ``log``, and refuses
    any other kind before touching disk."""
    store = Store.open("log", str(tmp_path / "a"))
    assert store.backend.kind == "log"
    store.close()
    with pytest.raises(StorageError, match="expected 'log'"):
        Store.open("tape", str(tmp_path / "tape"))
    assert not (tmp_path / "tape").exists()


@pytest.mark.parametrize("how", ("argument", "env", "service"))
def test_removed_sqlite_kind_fails_typed_before_creating_files(
    how, tmp_path, monkeypatch
):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr("tempfile.tempdir", None)
    monkeypatch.delenv("REPRO_STORE_PATH", raising=False)
    with pytest.raises(StorageError, match="expected 'log'"):
        if how == "argument":
            Store.open("sqlite")
        elif how == "env":
            monkeypatch.setenv("REPRO_STORE", "sqlite")
            Store.open()
        else:
            from repro.server.service import (
                ProcessLockingService,
                ServiceConfig,
            )

            ProcessLockingService(
                ServiceConfig(
                    store="sqlite", store_path=str(tmp_path / "store")
                )
            )
    assert list(tmp_path.iterdir()) == []
