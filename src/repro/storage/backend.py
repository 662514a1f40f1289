"""Storage backends: where durable frames physically live.

A backend stores ordered opaque payloads per **namespace** (one logical
log: the scheduler journal, a snapshot slot, one subsystem's data, ...).
There is one, :class:`AppendLogBackend` (store kind ``log``): one
append-only commit log of CRC32-framed records
(:mod:`repro.storage.codec`) shared by every appended namespace, a file
each for the swapped slots, and an fsync policy (``always`` / ``batch``
/ ``never``).  The log's torn tail is healed (truncated) at open; CRC
mismatches raise :class:`~repro.errors.WalCorruptionError`.

``append_many`` is ``append`` for a group of frames: the same bytes in
the same order, handed to the file in one ``write``; ``replace_many``
is ``replace`` for a group of namespaces.

All mutating calls are serialized by one lock per backend: the engine
thread appends while the thread that owns the service reads stats and,
after a join that may time out, closes the store.
"""

from __future__ import annotations

import os
import threading

from repro.errors import StorageError, WalCorruptionError
from repro.storage.codec import HEADER_SIZE, encode_frame, scan_frames

FSYNC_POLICIES = ("always", "batch", "never")

#: The commit log's own name: its file (``commit.log``), its key in
#: ``heal()`` and the ``namespace`` of its corruption errors.  No
#: namespace may be called that.
COMMIT_LOG = "commit"

#: What a commit-log frame adds to its payload: header and tag byte.
_FRAMING = HEADER_SIZE + 1


def _check_policy(fsync: str) -> str:
    if fsync not in FSYNC_POLICIES:
        raise StorageError(
            f"unknown fsync policy {fsync!r}; "
            f"expected one of {FSYNC_POLICIES}"
        )
    return fsync


def scan_log(data: bytes):
    """Decode the bytes of a commit log: ``(scan, ids, owners)``.

    ``scan`` is the tagged :func:`~repro.storage.codec.scan_frames`
    result, ``ids`` the declared ``{namespace: id}``, and ``owners[i]``
    the namespace frame ``i`` belongs to — ``None`` for a declaration.
    Raises :class:`~repro.errors.WalCorruptionError` on a frame whose
    id nothing ahead of it declares, as on a bad CRC.
    """
    scan = scan_frames(data, namespace=COMMIT_LOG, tagged=True)
    names: dict[int, str] = {}
    owners: list[str | None] = []
    try:
        for tag, payload in zip(scan.tags, scan.payloads):
            if tag:
                owners.append(names[tag])
            else:
                names[payload[0]] = payload[1:].decode("utf-8")
                owners.append(None)
    except (KeyError, IndexError, UnicodeDecodeError):
        raise WalCorruptionError(
            f"frame {len(owners)} has namespace id {tag}, which no "
            "well-formed frame ahead of it declares",
            namespace=COMMIT_LOG,
        ) from None
    return scan, {name: tag for tag, name in names.items()}, owners


class AppendLogBackend:
    """One CRC32-framed append-only commit log, and a file per slot.

    ``root`` is a directory.  Every namespace that is *appended* to
    shares ``commit.log``: its frames carry a one-byte namespace id
    ahead of the payload and lie in program order, whichever namespace
    they belong to.  An id is declared in-band, by a frame of id 0
    holding the id and the name, written ahead of the namespace's first
    frame; ids count up from 1, so one log holds 255 namespaces.  One
    file means one ``fsync`` per flush and one order of everything
    written: any byte cut of the log is a prefix of the program's
    appends to *all* namespaces, so a record that was written after
    another is never durable without it.

    A namespace that is only ever *replaced* (``meta``, ``snapshot``)
    is a slot: untagged frames in a file of its own, ``a/b`` in
    ``a@b.log`` (namespaces never contain ``@``), swapped whole by
    tmp + rename.

    Appends write straight through to the OS (unbuffered), so a killed
    *process* loses nothing; only a machine crash can lose the
    un-fsynced suffix, which is exactly what the ``batch``/``never``
    policies trade for speed.  The log is scanned once, at first use:
    its torn tail is healed there, and ``read_all`` hands each
    namespace's payloads out of that scan and lets go of them — a read
    after that scans the log again and keeps that namespace's payloads
    alone.
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
        self._log_path = os.path.join(self.root, COMMIT_LOG + self._SUFFIX)
        self._log = None
        #: Of the namespaces in the log: id byte, frame count, frame
        #: bytes, and the payloads of the latest scan that nobody has
        #: read yet.
        self._tags: dict[str, bytes] = {}
        self._counts: dict[str, int] = {}
        self._sizes: dict[str, int] = {}
        self._scanned: dict[str, list[bytes]] = {}
        self._healed: dict[str, int] = {}
        self._unsynced = 0
        self._mutex = threading.Lock()
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    # -- the log -------------------------------------------------------
    def _open(self) -> None:
        """First use: scan the log, cut its torn tail, open it."""
        result = self._scan()
        if result.torn:
            with open(self._log_path, "r+b") as out:
                out.truncate(result.good_bytes)
                os.fsync(out.fileno())
                self.fsyncs += 1
            self._healed = {COMMIT_LOG: result.torn_bytes}
        self._log = open(self._log_path, "ab", buffering=0)

    def _read_log(self):
        """:func:`scan_log` of the log as it is on disk."""
        try:
            with open(self._log_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        return scan_log(data)

    def _scan(self):
        """Read the log at open and sort its payloads by namespace."""
        result, ids, owners = self._read_log()
        scanned: dict[str, list[bytes]] = {name: [] for name in ids}
        for owner, payload in zip(owners, result.payloads):
            if owner is not None:
                scanned[owner].append(payload)
        self._tags = {name: bytes([tag]) for name, tag in ids.items()}
        self._counts = {
            name: len(payloads) for name, payloads in scanned.items()
        }
        self._sizes = {
            name: sum(_FRAMING + len(payload) for payload in payloads)
            for name, payloads in scanned.items()
        }
        self._scanned = scanned
        return result

    def _declare(self, namespace: str) -> bytes:
        """Give ``namespace`` the next id, and say so in the log."""
        if os.path.exists(self._slot_path(namespace)):
            raise StorageError(
                f"namespace {namespace!r} is a swapped slot; it takes "
                "no appends"
            )
        if len(self._tags) == 255:
            raise StorageError(
                f"the commit log holds 255 namespaces; no id is left "
                f"for {namespace!r}"
            )
        tag = bytes([len(self._tags) + 1])
        declaration = encode_frame(tag + namespace.encode("utf-8"), b"\0")
        self._log.write(declaration)
        self.bytes_written += len(declaration)
        self._tags[namespace] = tag
        self._counts[namespace] = 0
        self._sizes[namespace] = 0
        return tag

    def _sync(self) -> None:
        os.fsync(self._log.fileno())
        self.fsyncs += 1
        self._unsynced = 0

    # -- slots ---------------------------------------------------------
    def _slot_path(self, namespace: str) -> str:
        if (
            "@" in namespace
            or namespace.startswith(".")
            or namespace == COMMIT_LOG
        ):
            raise StorageError(f"illegal namespace {namespace!r}")
        return os.path.join(
            self.root, namespace.replace("/", "@") + self._SUFFIX
        )

    def _read_slot(self, namespace: str) -> list[bytes]:
        try:
            with open(self._slot_path(namespace), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        return scan_frames(data, namespace=namespace).payloads

    def _swap(self, path: str, data: bytes) -> None:
        """Atomically give ``path`` the content ``data`` (tmp + rename)."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as out:
            out.write(data)
            out.flush()
            if self.fsync != "never":
                os.fsync(out.fileno())
                self.fsyncs += 1
        os.replace(tmp, path)
        self.bytes_written += len(data)
        if self.fsync != "never":
            fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(fd)
                self.fsyncs += 1
            finally:
                os.close(fd)

    # -- writes --------------------------------------------------------
    def append(self, namespace: str, payload: bytes) -> None:
        self.append_many(namespace, (payload,))

    def append_many(self, namespace: str, payloads) -> None:
        """Append one frame per payload, in order, in a single write
        (and at most one fsync: ``batch`` counts frames, so a group
        that crosses ``sync_every`` syncs once, at its end)."""
        with self._mutex:
            if self._log is None:
                self._open()
            tag = self._tags.get(namespace) or self._declare(namespace)
            frames = b"".join(
                [encode_frame(payload, tag) for payload in payloads]
            )
            self._log.write(frames)
            self._scanned.pop(namespace, None)
            self._counts[namespace] += len(payloads)
            self._sizes[namespace] += len(frames)
            self.appends += len(payloads)
            self.bytes_written += len(frames)
            if self.fsync == "always":
                self._sync()
            elif self.fsync == "batch":
                self._unsynced += len(payloads)
                if self._unsynced >= self.sync_every:
                    self._sync()

    def replace(self, namespace: str, payloads: list[bytes]) -> None:
        """Atomically swap a namespace's whole content."""
        self.replace_many({namespace: payloads})

    def replace_many(self, contents: dict[str, list[bytes]]) -> None:
        """Swap the whole content of several namespaces: those that
        live in the log together, in one swap of it (every other
        namespace's frames stay where they are, the new ones go to the
        end); a slot each by its own."""
        with self._mutex:
            if self._log is None:
                self._open()
            logged = [name for name in contents if name in self._tags]
            if logged:
                with open(self._log_path, "rb") as handle:
                    data = handle.read()
                result = scan_frames(data, namespace=COMMIT_LOG, tagged=True)
                dropped = {self._tags[name][0] for name in logged}
                frames, start = [], 0
                for tag, end in zip(result.tags, result.ends):
                    if tag not in dropped:
                        frames.append(data[start:end])
                    start = end
                for name in logged:
                    tag = self._tags[name]
                    written = [
                        encode_frame(payload, tag)
                        for payload in contents[name]
                    ]
                    frames.extend(written)
                    self._counts[name] = len(written)
                    self._sizes[name] = sum(map(len, written))
                    self._scanned.pop(name, None)
                self._log.close()
                self._swap(self._log_path, b"".join(frames))
                self._log = open(self._log_path, "ab", buffering=0)
                self._unsynced = 0
            for name, payloads in contents.items():
                if name not in self._tags:
                    self._swap(
                        self._slot_path(name),
                        b"".join(map(encode_frame, payloads)),
                    )

    # -- reads & recovery ----------------------------------------------
    def read_all(self, namespace: str) -> list[bytes]:
        with self._mutex:
            if self._log is None:
                self._open()
            if namespace in self._tags:
                held = self._scanned.pop(namespace, None)
                return self._rescan(namespace) if held is None else held
        return self._read_slot(namespace)

    def _rescan(self, namespace: str) -> list[bytes]:
        """``namespace``'s payloads, read off the log again; every other
        namespace's stay on disk."""
        result, _, owners = self._read_log()
        return [
            payload
            for owner, payload in zip(owners, result.payloads)
            if owner == namespace
        ]

    def count(self, namespace: str) -> int:
        """Frames in ``namespace``, without reading the log for it."""
        with self._mutex:
            if self._log is None:
                self._open()
            held = self._counts.get(namespace)
        return len(self._read_slot(namespace)) if held is None else held

    def size(self, namespace: str) -> int:
        """Bytes ``namespace``'s frames take on disk, headers and tag
        bytes included, without reading the log for it."""
        with self._mutex:
            if self._log is None:
                self._open()
            held = self._sizes.get(namespace)
        if held is not None:
            return held
        try:
            return os.path.getsize(self._slot_path(namespace))
        except FileNotFoundError:
            return 0

    def namespaces(self) -> list[str]:
        with self._mutex:
            if self._log is None:
                self._open()
            found = set(self._tags)
        for entry in os.listdir(self.root):
            name, suffix = os.path.splitext(entry)
            if suffix == self._SUFFIX and name != COMMIT_LOG:
                found.add(name.replace("@", "/"))
        return sorted(found)

    def heal(self) -> dict[str, int]:
        """What opening the log cut off its torn tail:
        ``{"commit": dropped_bytes}``, or nothing.

        Corrupt (complete but CRC-failing) frames are *not* healed —
        they raise, because silently dropping acknowledged records
        would turn bit rot into data loss.
        """
        with self._mutex:
            if self._log is None:
                self._open()
            return dict(self._healed)

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        with self._mutex:
            if self.fsync == "batch" and self._unsynced:
                self._sync()

    def close(self) -> None:
        self.flush()
        with self._mutex:
            if self._log is not None:
                self._log.close()
                self._log = None
            self._scanned = {}

