"""Storage backends: where durable frames physically live.

A backend stores ordered opaque payloads per **namespace** (one logical
log: the scheduler journal, a snapshot slot, one subsystem's WAL, ...).
Two implementations share the same surface:

* :class:`AppendLogBackend` — one append-only file of CRC32-framed
  records (:mod:`repro.storage.codec`) per namespace, with an fsync
  policy (``always`` / ``batch`` / ``never``).  Torn tails are healed
  (truncated) at open; CRC mismatches raise
  :class:`~repro.errors.WalCorruptionError`.
* :class:`MemoryBackend` — a dict of lists; persists nothing and
  exists so benchmarks can price durability against a true no-op and
  tests can exercise the facade without touching disk.

``append_many`` is ``append`` for a group of frames: the same bytes in
the same order, handed to the file in one ``write``.

All mutating calls are serialized by one lock per backend: the journal
tee can emit from shard workers while the engine thread appends.
"""

from __future__ import annotations

import os
import threading

from repro.errors import StorageError
from repro.storage.codec import encode_frame, scan_frames

FSYNC_POLICIES = ("always", "batch", "never")


def _check_policy(fsync: str) -> str:
    if fsync not in FSYNC_POLICIES:
        raise StorageError(
            f"unknown fsync policy {fsync!r}; "
            f"expected one of {FSYNC_POLICIES}"
        )
    return fsync


class MemoryBackend:
    """Frames in process memory — the durability no-op baseline."""

    kind = "memory"

    def __init__(self, fsync: str = "batch", sync_every: int = 64) -> None:
        _check_policy(fsync)
        self._frames: dict[str, list[bytes]] = {}
        self._mutex = threading.Lock()
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    def append(self, namespace: str, payload: bytes) -> None:
        self.append_many(namespace, (payload,))

    def append_many(self, namespace: str, payloads) -> None:
        with self._mutex:
            self._frames.setdefault(namespace, []).extend(
                bytes(p) for p in payloads
            )
            self.appends += len(payloads)
            self.bytes_written += sum(len(p) for p in payloads)

    def replace(self, namespace: str, payloads: list[bytes]) -> None:
        with self._mutex:
            self._frames[namespace] = [bytes(p) for p in payloads]
            self.bytes_written += sum(len(p) for p in payloads)

    def read_all(self, namespace: str) -> list[bytes]:
        with self._mutex:
            return list(self._frames.get(namespace, []))

    def namespaces(self) -> list[str]:
        with self._mutex:
            return sorted(self._frames)

    def heal(self) -> dict[str, int]:
        """Nothing to heal in memory."""
        return {}

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class AppendLogBackend:
    """One CRC32-framed append-only file per namespace.

    ``root`` is a directory; namespace ``a/b`` maps to file ``a@b.log``
    (namespaces never contain ``@``).  Appends write straight through
    to the OS (unbuffered), so a killed *process* loses nothing; only a
    machine crash can lose the un-fsynced suffix, which is exactly what
    the ``batch``/``never`` policies trade for speed.
    """

    kind = "log"
    _SUFFIX = ".log"

    def __init__(
        self, root: str, fsync: str = "batch", sync_every: int = 64
    ) -> None:
        self.root = str(root)
        self.fsync = _check_policy(fsync)
        self.sync_every = max(1, int(sync_every))
        os.makedirs(self.root, exist_ok=True)
        self._files: dict[str, object] = {}
        self._unsynced: dict[str, int] = {}
        self._mutex = threading.Lock()
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    # -- namespace <-> filename ----------------------------------------
    def _path(self, namespace: str) -> str:
        if "@" in namespace or namespace.startswith("."):
            raise StorageError(f"illegal namespace {namespace!r}")
        return os.path.join(
            self.root, namespace.replace("/", "@") + self._SUFFIX
        )

    def namespaces(self) -> list[str]:
        found = []
        for entry in os.listdir(self.root):
            if entry.endswith(self._SUFFIX):
                found.append(
                    entry[: -len(self._SUFFIX)].replace("@", "/")
                )
        return sorted(found)

    def _handle(self, namespace: str):
        handle = self._files.get(namespace)
        if handle is None:
            handle = open(self._path(namespace), "ab", buffering=0)
            self._files[namespace] = handle
        return handle

    # -- writes --------------------------------------------------------
    def append(self, namespace: str, payload: bytes) -> None:
        self.append_many(namespace, (payload,))

    def append_many(self, namespace: str, payloads) -> None:
        """Append one frame per payload, in order, in a single write
        (and at most one fsync: ``batch`` counts frames, so a group
        that crosses ``sync_every`` syncs once, at its end)."""
        frames = b"".join(map(encode_frame, payloads))
        with self._mutex:
            handle = self._handle(namespace)
            handle.write(frames)
            self.appends += len(payloads)
            self.bytes_written += len(frames)
            if self.fsync == "always":
                os.fsync(handle.fileno())
                self.fsyncs += 1
            elif self.fsync == "batch":
                pending = self._unsynced.get(namespace, 0) + len(payloads)
                if pending >= self.sync_every:
                    os.fsync(handle.fileno())
                    self.fsyncs += 1
                    pending = 0
                self._unsynced[namespace] = pending

    def replace(self, namespace: str, payloads: list[bytes]) -> None:
        """Atomically swap a namespace's whole content (tmp + rename)."""
        path = self._path(namespace)
        tmp = path + ".tmp"
        with self._mutex:
            handle = self._files.pop(namespace, None)
            if handle is not None:
                handle.close()
            with open(tmp, "wb") as out:
                for payload in payloads:
                    frame = encode_frame(payload)
                    out.write(frame)
                    self.bytes_written += len(frame)
                out.flush()
                if self.fsync != "never":
                    os.fsync(out.fileno())
                    self.fsyncs += 1
            os.replace(tmp, path)
            if self.fsync != "never":
                self._fsync_dir()
            self._unsynced.pop(namespace, None)

    def _fsync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
            self.fsyncs += 1
        finally:
            os.close(fd)

    # -- reads & recovery ----------------------------------------------
    def read_all(self, namespace: str) -> list[bytes]:
        path = self._path(namespace)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        return scan_frames(data, namespace=namespace).payloads

    def heal(self) -> dict[str, int]:
        """Truncate every torn tail; ``{namespace: dropped_bytes}``.

        Corrupt (complete but CRC-failing) frames are *not* healed —
        they raise, because silently dropping acknowledged records
        would turn bit rot into data loss.
        """
        healed: dict[str, int] = {}
        with self._mutex:
            for namespace in self.namespaces():
                path = self._path(namespace)
                with open(path, "rb") as handle:
                    data = handle.read()
                result = scan_frames(data, namespace=namespace)
                if result.torn:
                    handle = self._files.pop(namespace, None)
                    if handle is not None:
                        handle.close()
                    with open(path, "r+b") as out:
                        out.truncate(result.good_bytes)
                        out.flush()
                        os.fsync(out.fileno())
                        self.fsyncs += 1
                    healed[namespace] = result.torn_bytes
        return healed

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        with self._mutex:
            if self.fsync == "never":
                return
            for namespace, handle in self._files.items():
                if self.fsync == "always":
                    continue
                if self._unsynced.get(namespace, 0):
                    os.fsync(handle.fileno())
                    self.fsyncs += 1
                    self._unsynced[namespace] = 0

    def close(self) -> None:
        self.flush()
        with self._mutex:
            for handle in self._files.values():
                handle.close()
            self._files.clear()


BACKENDS = {
    "memory": MemoryBackend,
    "log": AppendLogBackend,
}


def check_kind(kind: str) -> None:
    """Raise the typed error unless ``kind`` names a backend — callable
    before anything is created on disk."""
    if kind not in BACKENDS:
        raise StorageError(
            f"unknown store backend {kind!r}; "
            f"expected one of {sorted(BACKENDS)}"
        )


def open_backend(
    kind: str, path: str, fsync: str = "batch", sync_every: int = 64
):
    """Construct the backend for ``kind`` rooted at ``path``."""
    check_kind(kind)
    if kind == "memory":
        return MemoryBackend(fsync=fsync, sync_every=sync_every)
    return AppendLogBackend(path, fsync=fsync, sync_every=sync_every)
