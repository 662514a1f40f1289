"""The durable store facade: one repository per persistence concern.

:class:`Store` owns a backend (:mod:`repro.storage.backend`) and hands
out narrow repositories over it:

* :class:`MetaRepository` — the store's identity document (protocol,
  workload spec, seed, format version), written once and verified on
  every reopen so a server cannot replay a journal produced by a
  different world.
* ``journal`` — the scheduler's logical redo journal, a
  :class:`FrameRepository` (LSN = record index): one record per
  terminal outcome, and one per submission or cancel whose pid a drain
  point found undecided, in the order they were journaled.
* :class:`SnapshotRepository` — a single-slot checkpoint document
  (atomic whole-namespace replace): live-process state plus the
  journal and trace watermarks it covers.
* :class:`TraceRepository` — the observed schedule: each checkpoint
  appends the events recorded since the previous one, and compaction
  rewrites what the snapshot covers as one frame.
* :class:`FrameRepository` — ordered records in one namespace; each
  subsystem's redo data (``ssdata/<name>``, one frame per committed
  transaction) is an instance of it.

Appended records go to disk as positional JSON arrays, through the
codecs of :mod:`repro.storage.journal` (the one module that knows their
layout); the two slot documents as canonical JSON objects (sorted keys,
compact separators).  Either way identical logical records are
identical bytes — the torn-tail property tests rely on byte-stable
frames.
"""

from __future__ import annotations

import json
import tempfile

from repro import config as repro_config
from repro.errors import StorageError, WalCorruptionError
from repro.storage.backend import AppendLogBackend
from repro.storage.journal import JOURNAL, TRACE, loads, subsystem_data

#: Bumped when the on-disk record formats change shape; a store
#: written under another version is refused by
#: :meth:`MetaRepository.ensure`.  2: the trace left the snapshot
#: document for its own namespace, and finished processes live in
#: their terminal journal records only.  3: every appended namespace
#: shares one commit log; only the swapped slots keep a file each.
#: 4: every appended record is a positional JSON array, its layout
#: written down once in :mod:`repro.storage.journal`.  5: a subsystem
#: keeps no undo log, and writes one redo frame per committed
#: transaction.  6: a trace frame holds per-process runs of events
#: with a name table and uid deltas, not one row per event.  7: a
#: process decided in the drain that admitted it has no ``submit``
#: record; a ``terminal`` row holds its outcome as one letter and ends
#: before the fields left at their defaults; a ``txn`` row's keys are
#: relative to its subsystem.  8: a ``terminal`` row holds only what a
#: client reads or recovery replays (``committed_at``,
#: ``resubmissions`` and the compensation lists), not the per-pid
#: counts the event fold keeps.
FORMAT_VERSION = 8

META_NS = "meta"
JOURNAL_NS = "journal"
SNAPSHOT_NS = "snapshot"
TRACE_NS = "trace"
SUBSYSTEM_DATA_PREFIX = "ssdata/"


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds
#: one of these per call; every record shares this one instead.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(record: dict) -> bytes:
    """Canonical JSON bytes for one slot document."""
    return _CANONICAL.encode(record).encode("utf-8")


def codec_for(namespace: str):
    """The codec of an appended namespace's records; ``None`` for a
    slot, which holds one keyed document."""
    if namespace == JOURNAL_NS:
        return JOURNAL
    if namespace == TRACE_NS:
        return TRACE
    if namespace.startswith(SUBSYSTEM_DATA_PREFIX):
        return subsystem_data(namespace[len(SUBSYSTEM_DATA_PREFIX):])
    return None


class FrameRepository:
    """Ordered records in one backend namespace, through its codec."""

    def __init__(self, backend, namespace: str) -> None:
        self._backend = backend
        self.namespace = namespace
        self._codec = codec_for(namespace)

    def append(self, record: dict) -> None:
        self._backend.append(self.namespace, self._codec.encode(record))

    def records(self) -> list[dict]:
        decode = self._codec.decode
        return [
            decode(payload, self.namespace)
            for payload in self._backend.read_all(self.namespace)
        ]

    def __len__(self) -> int:
        return self._backend.count(self.namespace)


class SnapshotRepository:
    """Single-slot checkpoint document, swapped atomically."""

    def __init__(self, backend) -> None:
        self._backend = backend

    def save(self, document: dict) -> None:
        self._backend.replace(SNAPSHOT_NS, [dumps(document)])

    def load(self) -> dict | None:
        payloads = self._backend.read_all(SNAPSHOT_NS)
        if not payloads:
            return None
        return loads(payloads[-1], SNAPSHOT_NS)


class TraceRepository:
    """The observed schedule ``<_S``, one frame per checkpoint.

    A frame ``{"start": p, "events": [...]}`` holds the rows of the
    events at trace positions ``p, p+1, ...``; on disk it is a list of
    per-process runs (:mod:`repro.storage.journal`).  A checkpoint
    appends (and syncs) its frame *before* its document is swapped in,
    so the document's ``trace_len`` never points past the durable
    trace; a crash between the two steps leaves an orphan frame past
    the watermark, which the next incarnation's first frame — starting
    at that same watermark — supersedes.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    def append(self, start: int, events: list) -> None:
        self._backend.append(
            TRACE_NS, TRACE.encode({"start": start, "events": events})
        )

    def events(self, watermark: int = 0) -> list:
        """Every event on disk, in position order.

        Raises :class:`WalCorruptionError` when a frame starts past the
        end of what precedes it, or when fewer than ``watermark``
        events are there: a checkpoint covers a trace prefix that is
        gone.  Events at or past ``watermark`` may be orphans; the
        caller cuts them.
        """
        return self.splice(
            (
                TRACE.decode(payload, TRACE_NS)
                for payload in self._backend.read_all(TRACE_NS)
            ),
            watermark,
        )

    @staticmethod
    def splice(frames, watermark: int = 0) -> list:
        """:meth:`events` of the decoded ``frames``, in file order."""
        events: list = []
        for frame in frames:
            start = frame["start"]
            if start > len(events):
                raise WalCorruptionError(
                    f"{TRACE_NS}: frame starts at position {start} but "
                    f"only {len(events)} events precede it",
                    namespace=TRACE_NS,
                )
            # A frame starting inside what was read supersedes it.
            del events[start:]
            events.extend(frame["events"])
        if len(events) < watermark:
            raise WalCorruptionError(
                f"{TRACE_NS}: holds {len(events)} events but the "
                f"snapshot covers {watermark}",
                namespace=TRACE_NS,
            )
        return events


class MetaRepository:
    """The store's identity document."""

    def __init__(self, backend) -> None:
        self._backend = backend

    def load(self) -> dict | None:
        payloads = self._backend.read_all(META_NS)
        if not payloads:
            return None
        return loads(payloads[-1], META_NS)

    def ensure(self, expected: dict) -> dict:
        """Write ``expected`` on first open; verify compatibility after.

        Raises :class:`StorageError` when the store on disk was written
        by a different world (protocol/spec/seed/format mismatch) —
        replaying such a journal would be silent nonsense.
        """
        expected = dict(expected, format=FORMAT_VERSION)
        current = self.load()
        if current is None:
            self._backend.replace(META_NS, [dumps(expected)])
            return expected
        mismatched = {
            key: (current.get(key), value)
            for key, value in expected.items()
            if current.get(key) != value
        }
        if mismatched:
            detail = "; ".join(
                f"{key}: store has {have!r}, caller wants {want!r}"
                for key, (have, want) in sorted(mismatched.items())
            )
            raise StorageError(
                f"store metadata mismatch ({detail}); refusing to "
                "replay a journal written by a different configuration"
            )
        return current


def _check_format(meta: dict) -> None:
    """Raise unless the identity document ``meta`` is of this format."""
    have = meta.get("format") if type(meta) is dict else None
    if have != FORMAT_VERSION:
        raise StorageError(
            f"format: store has {have!r}, this release reads "
            f"{FORMAT_VERSION}"
        )


def _trace_watermark(snapshot: dict | None) -> int:
    """Trace events the checkpoint document ``snapshot`` covers."""
    return 0 if snapshot is None else snapshot.get("trace_len", 0)


class Store:
    """Facade over one durable backend; repository per concern."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.meta = MetaRepository(backend)
        self.journal = FrameRepository(backend, JOURNAL_NS)
        self.snapshots = SnapshotRepository(backend)
        self.trace = TraceRepository(backend)
        #: The torn tail cut at open: ``{"commit": dropped_bytes}`` (the
        #: log's own name — its frames belong to every namespace).
        self.healed: dict[str, int] = backend.heal()

    # -- construction --------------------------------------------------
    @classmethod
    def open(
        cls,
        kind: str | None = None,
        path: str | None = None,
        fsync: str | None = None,
        sync_every: int = 64,
    ) -> "Store":
        """Open a store; ``kind`` / ``path`` / ``fsync`` left ``None``
        resolve via their ``REPRO_STORE*`` knobs.

        With no path configured anywhere, a fresh temporary directory
        is used — durable within the process lifetime only, which is
        what ambient durability under the test suite wants.
        """
        kind = repro_config.store_kind(kind)
        if kind is None:
            raise StorageError(
                "no store backend configured: pass kind= or set "
                "REPRO_STORE to 'log'"
            )
        if kind != AppendLogBackend.kind:
            raise StorageError(
                f"unknown store backend {kind!r}; expected 'log'"
            )
        path = repro_config.store_path(path)
        if path is None:
            path = tempfile.mkdtemp(prefix="repro-store-")
        backend = AppendLogBackend(
            path,
            fsync=repro_config.store_fsync(fsync),
            sync_every=sync_every,
        )
        return cls(backend)

    # -- subsystem repositories ----------------------------------------
    def subsystem_data(self, name: str) -> FrameRepository:
        return FrameRepository(
            self.backend, SUBSYSTEM_DATA_PREFIX + name
        )

    def subsystem_names(self) -> list[str]:
        return [
            namespace[len(SUBSYSTEM_DATA_PREFIX):]
            for namespace in self.backend.namespaces()
            if namespace.startswith(SUBSYSTEM_DATA_PREFIX)
        ]

    # -- maintenance ---------------------------------------------------
    def flush(self) -> None:
        self.backend.flush()

    def close(self) -> None:
        self.backend.close()

    def stats(self) -> dict:
        return {
            "kind": self.backend.kind,
            "path": getattr(self.backend, "root", ""),
            "fsync": getattr(self.backend, "fsync", "n/a"),
            "appends": self.backend.appends,
            "fsyncs": self.backend.fsyncs,
            "bytes_written": self.backend.bytes_written,
            "healed": dict(self.healed),
        }

    def verify(self) -> dict:
        """Walk every namespace; decode every record through its
        namespace's codec, and report what does not decode.

        Returns ``{"ok": bool, "namespaces": {ns: {...}},
        "corrupt": [...]}`` without raising — the CLI maps ``corrupt``
        to exit code 2.  A store written under another format is
        reported against ``meta``.
        """
        report: dict = {"ok": True, "namespaces": {}, "corrupt": []}
        trace: list[dict] = []
        for namespace in self.backend.namespaces():
            entry: dict = {"records": 0, "error": None}
            codec = codec_for(namespace)
            decode = loads if codec is None else codec.decode
            try:
                payloads = self.backend.read_all(namespace)
                entry["records"] = len(payloads)
                records = [decode(payload, namespace) for payload in payloads]
                if namespace == META_NS and records:
                    _check_format(records[-1])
                if namespace == TRACE_NS:
                    trace = records
            except StorageError as exc:
                entry["error"] = str(exc)
                report["corrupt"].append(namespace)
                report["ok"] = False
            report["namespaces"][namespace] = entry
        if report["ok"]:
            # Every frame decodes; now the one cross-namespace bond:
            # the snapshot's watermark must lie inside the trace.
            try:
                self.trace.splice(
                    trace, _trace_watermark(self.snapshots.load())
                )
            except WalCorruptionError as exc:
                entry = report["namespaces"].setdefault(
                    TRACE_NS, {"records": 0}
                )
                entry["error"] = str(exc)
                report["corrupt"].append(TRACE_NS)
                report["ok"] = False
        report["healed"] = dict(self.healed)
        return report

    def describe(self) -> dict:
        """Inspection summary: meta, the backend's counters, frames and
        bytes on disk per namespace, snapshot, journal, trace,
        subsystems.

        Raises :class:`WalCorruptionError` when the trace is shorter
        than the snapshot's watermark, as a restart would.
        """
        snapshot = self.snapshots.load()
        journal = self.journal.records()
        kinds: dict[str, int] = {}
        for record in journal:
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        return {
            "meta": self.meta.load(),
            "stats": self.stats(),
            "namespaces": {
                namespace: {
                    "frames": self.backend.count(namespace),
                    "bytes": self.backend.size(namespace),
                }
                for namespace in self.backend.namespaces()
            },
            "journal": {"records": len(journal), "kinds": kinds},
            "snapshot": None
            if snapshot is None
            else {
                "journal_lsn": snapshot.get("journal_lsn"),
                "trace_len": snapshot.get("trace_len"),
                "crashed_at": snapshot.get("crashed_at"),
                "processes": len(snapshot.get("processes", [])),
                "max_pid": snapshot.get("max_pid"),
            },
            "trace": {
                "events": len(
                    self.trace.events(_trace_watermark(snapshot))
                )
            },
            "subsystems": {
                name: {
                    "txns": len(self.subsystem_data(name)),
                    "keys": len(self._subsystem_state(name)),
                }
                for name in self.subsystem_names()
            },
        }

    def compact(self) -> dict:
        """Drop records the next recovery can no longer need.

        * journal — before the snapshot watermark, keeps the latest
          ``terminal`` record of each pid (the one durable home of a
          finished process) and the submissions that are still
          undecided (no terminal record, not live in the snapshot:
          exactly the pending-initiation processes); everything past
          the watermark stays.  What goes is subsumed: decided and
          live pids' ``submit`` records, and ``cancel`` records.  With
          no snapshot the journal is untouched.
        * trace — the events the snapshot covers (its ``trace_len``),
          rewritten as one frame starting at 0: superseded and orphan
          frames go, and the post-crash CT / P-RC check still gets
          every event.  With no snapshot the trace is untouched.
        * subsystem data — rewritten last-write-wins: one ``txn``
          frame holding every key's latest value.

        Whatever is rewritten goes in together
        (:meth:`~repro.storage.backend.AppendLogBackend.replace_many`):
        a crash leaves the old records or the new, of every namespace.
        """
        before = self._counts()
        contents: dict[str, list[dict]] = {}
        snapshot = self.snapshots.load()
        if snapshot is not None:
            # A namespace the log never declared would be swapped in
            # as a slot file of its own.
            if self.backend.count(TRACE_NS):
                trace_len = _trace_watermark(snapshot)
                events = self.trace.events(trace_len)[:trace_len]
                contents[TRACE_NS] = (
                    [{"start": 0, "events": events}] if events else []
                )
            watermark = int(snapshot.get("journal_lsn", 0))
            live_pids = {
                entry["pid"] for entry in snapshot.get("processes", [])
            }
            journal = self.journal.records()
            head, tail = journal[:watermark], journal[watermark:]
            latest_terminal = {
                record["pid"]: index
                for index, record in enumerate(head)
                if record["kind"] == "terminal"
            }
            kept_head = [
                record
                for index, record in enumerate(head)
                if latest_terminal.get(record["pid"]) == index
                or (
                    record["kind"] == "submit"
                    and record["pid"] not in latest_terminal
                    and record["pid"] not in live_pids
                )
            ]
            contents[JOURNAL_NS] = kept_head + tail
            # The watermark goes in first: a crash before the log is
            # swapped leaves it short of the old journal's, which only
            # makes the next compaction keep more; one past the new
            # journal's would let it drop a live ``cancel``.
            self.snapshots.save(
                dict(snapshot, journal_lsn=len(kept_head))
            )
        for name in self.subsystem_names():
            state = self._subsystem_state(name)
            contents[SUBSYSTEM_DATA_PREFIX + name] = [
                {"kind": "txn", "writes": dict(sorted(state.items()))}
            ]
        self.backend.replace_many(
            {
                namespace: list(map(codec_for(namespace).encode, records))
                for namespace, records in contents.items()
            }
        )
        after = self._counts()
        return {
            "before": before,
            "after": after,
            "dropped": {
                namespace: before.get(namespace, 0)
                - after.get(namespace, 0)
                for namespace in before
            },
        }

    def _subsystem_state(self, name: str) -> dict:
        """Subsystem ``name``'s records as its ``txn`` frames leave
        them, last write wins."""
        state: dict = {}
        for record in self.subsystem_data(name).records():
            state.update(record["writes"])
        return state

    def _counts(self) -> dict[str, int]:
        return {
            namespace: self.backend.count(namespace)
            for namespace in self.backend.namespaces()
        }
