"""The persistence plane: snapshot + redo-journal recovery for a manager.

:class:`PersistencePlane` sits between a durable
:class:`~repro.storage.facade.Store` and one
:class:`~repro.scheduler.manager.ProcessManager` (usually the one
inside :class:`~repro.server.service.ProcessLockingService`) and owns
the durability protocol:

* every accepted submission is journaled (``submit`` records) *before*
  the client is acknowledged;
* every terminal outcome is journaled (``terminal`` records, carrying
  the final :class:`~repro.scheduler.events.ProcessRecord`) at the next
  quiescent point;
* once enough journal records accumulate, or a pid the last snapshot
  holds live is decided, a **snapshot** is cut.  It
  writes what changed since the previous one: the trace events
  recorded since go to the append-only ``trace`` namespace, and a small
  document — live-process continuations, the records of undecided
  pids, the journal and trace watermarks — is swapped in atomically
  after them.  Finished processes are not copied anywhere: their
  ``terminal`` record is their durable home.

Restart recovery composes the pieces: heal torn tails, rebuild the
:func:`repro.scheduler.recovery.crash` image from document + trace
prefix + terminal records, run it through the *existing*
:func:`repro.scheduler.recovery.recover` machinery (locks re-acquired
in sharing order, processes adopted mid-flight), then walk the journal
— terminal records restore finished processes without re-execution,
undecided submissions are re-scheduled under their original pids, and
an acknowledged ``cancel`` with no terminal yet is applied again.

Semantics (documented in ``docs/persistence.md``): process *outcomes*
are exactly-once — a journaled terminal is never re-run — while
activity *executions* between the last snapshot and a crash are
at-least-once, because live processes restart from their snapshot
state.  The spliced trace stays CT/P-RC-checkable end to end, which is
what the kill-9 tests assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.activities.activity import ensure_uid_floor
from repro.obs.events import StoreRecovered, StoreSnapshot, StoreTornTail
from repro.obs.metrics import MetricsTracer
from repro.scheduler.recovery import CrashImage, recover, snapshot_live
from repro.storage.journal import (
    ProgramCodec,
    checkpoint_from_dict,
    checkpoint_to_dict,
    record_from_dict,
    record_to_dict,
    trace_event_to_row,
)


@dataclass
class RecoveryInfo:
    """What a restart found and did."""

    #: Processes adopted from the snapshot (resume mid-flight, or
    #: go on awaiting their resubmission).
    adopted: int = 0
    #: Journaled submissions re-scheduled under their original pids.
    resubmitted: int = 0
    #: Finished processes restored from terminal records (not re-run).
    restored: int = 0
    journal_records: int = 0
    snapshot_lsn: int = 0
    #: Torn tail truncated at open: ``{"commit": dropped_bytes}``.
    healed: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def recovered_anything(self) -> bool:
        return bool(self.adopted or self.resubmitted or self.restored)


class PersistencePlane:
    """Drives one durable store for one manager lifecycle."""

    def __init__(
        self,
        store,
        catalog,
        snapshot_every: int = 48,
    ) -> None:
        self.store = store
        self.codec = ProgramCodec(catalog)
        self.snapshot_every = snapshot_every
        # Each namespace is decoded once, here (the backend scanned the
        # log once, at open, and hands the payloads over); recover()
        # consumes and releases the two lists (and counts the time
        # reading them took as its own).
        started = time.monotonic()
        self._document = store.snapshots.load()
        self._journal = store.journal.records()
        self._read_seconds = time.monotonic() - started
        #: Journal length found on disk at open (appends via
        #: ``store.journal.appended`` count from here).
        self._base_len = len(self._journal)
        self._snapshot_lsn = 0
        #: Trace events the last snapshot covers; the next one appends
        #: from here.
        self._trace_len = 0
        self._max_pid = 0
        #: Pids the newest document holds live or awaiting resubmission:
        #: a restart adopts and re-runs them, whatever their ``terminal``
        #: records say.
        self._adoptable: set[int] = set()
        self.last_recovery: RecoveryInfo | None = None

    # ------------------------------------------------------------------
    # identity & state probes
    # ------------------------------------------------------------------
    def ensure_meta(self, **identity) -> None:
        """Write-or-verify the store's identity document."""
        self.store.meta.ensure(identity)

    def has_state(self) -> bool:
        return self._base_len > 0 or self._document is not None

    @property
    def journal_len(self) -> int:
        return self._base_len + self.store.journal.appended

    # ------------------------------------------------------------------
    # startup recovery
    # ------------------------------------------------------------------
    def load_image(self) -> tuple[CrashImage, list[int]]:
        """The crash image as of the last snapshot, rebuilt from what
        open read, and the pids with an acknowledged ``cancel`` that
        have no outcome yet.

        Finished processes come from the journal: the latest
        ``terminal`` record of each pid.  A pid that is live in the
        snapshot re-executes from its snapshot state instead (its
        post-snapshot trace was lost with the crash, so restoring the
        terminal would leave the spliced schedule incomplete); its
        stale terminal record is ignored and a fresh one is journaled
        when it finishes again.  Submissions with neither are the
        image's ``pending`` pids (no delay is kept: they start at once).
        """
        document = self._document
        if document is None:
            image = CrashImage(snapshots=[], trace_events=[])
        else:
            trace_len = document["trace_len"]
            rows = self.store.trace.events(trace_len)
            del rows[trace_len:]  # orphans of a crash before the swap
            image = checkpoint_from_dict(document, rows, self.codec)
        live = {snapshot.pid for snapshot in image.snapshots}
        submits: dict[int, int] = {}
        cancels: set[int] = set()
        for entry in self._journal:
            kind, pid = entry.get("kind"), entry.get("pid")
            if kind == "submit":
                submits[pid] = int(entry["program"])
            elif kind == "cancel":
                cancels.add(pid)
            elif kind == "terminal" and pid not in live:
                stored = entry.get("record")
                image.records[pid] = record_from_dict(
                    stored or {"pid": pid, "submitted_at": 0.0},
                    entry.get("outcome"),
                )
        image.max_pid = max(image.max_pid, *submits, *image.records, 0)
        decided = {
            pid
            for pid, record in image.records.items()
            if record.outcome is not None
        }
        image.pending = [
            (pid, self.codec.program_at(program), 0.0)
            for pid, program in submits.items()
            if pid not in live and pid not in decided
        ]
        return image, sorted(cancels - decided)

    def recover(
        self,
        protocol,
        config=None,
        subsystems=None,
        seed: int = 0,
        tracer=None,
    ):
        """Rebuild a manager from the store; ``(manager, info)``.

        ``protocol`` must be fresh (its lock table is rebuilt from the
        journal), exactly as :func:`repro.scheduler.recovery.recover`
        requires.  The manager's fold is seeded once from the recovered
        image: every pid it knows counts as submitted, every decided one
        under its outcome.
        """
        started = time.monotonic()
        info = RecoveryInfo(healed=dict(self.store.healed))
        image, cancels = self.load_image()
        document, journal = self._document, self._journal
        self._document, self._journal = None, []
        info.journal_records = len(journal)
        if document is not None:
            info.snapshot_lsn = int(document["journal_lsn"])
            self._snapshot_lsn = info.snapshot_lsn
        self._trace_len = len(image.trace_events)
        self._max_pid = image.max_pid
        self._adoptable = {snapshot.pid for snapshot in image.snapshots}
        tracer = MetricsTracer.over(tracer)
        # Keep stamped times monotone across incarnations.
        tracer.offset += image.crashed_at
        manager = recover(
            image,
            protocol,
            config=config,
            subsystems=subsystems,
            seed=seed,
            tracer=tracer,
        )
        # recover() floors the activity-uid counter over live ledgers;
        # after a *process* restart (counters reborn at 1) finished
        # processes' uids live only in the trace, so floor over those
        # too — a uid collision would corrupt compensation pairing in
        # the spliced schedule.
        ensure_uid_floor(
            max(
                (event.uid or 0 for event in image.trace_events),
                default=0,
            )
        )
        info.adopted = len(image.snapshots)
        info.resubmitted = len(image.pending)
        info.restored = sum(
            record.outcome is not None for record in image.records.values()
        )
        stats = manager.stats
        stats.restore(records=manager.records.values())
        for pid in cancels:
            if not manager.cancel(pid):
                # Adopted mid-abort, already heading for "cancelled":
                # its ``process.cancel`` went out before the crash.
                stats.restore(cancelling=(pid,))
        info.seconds = self._read_seconds + time.monotonic() - started
        self.last_recovery = info
        for namespace, dropped in sorted(info.healed.items()):
            tracer.emit(
                StoreTornTail(namespace=namespace, dropped_bytes=dropped)
            )
        tracer.emit(
            StoreRecovered(
                backend=self.store.backend.kind,
                adopted=info.adopted,
                resubmitted=info.resubmitted,
                restored=info.restored,
                journal_records=info.journal_records,
                healed_namespaces=len(info.healed),
                seconds=round(info.seconds, 6),
            )
        )
        return manager, info

    # ------------------------------------------------------------------
    # runtime capture
    # ------------------------------------------------------------------
    def note_submit(
        self, pid: int, program_index: int, at: float = 0.0
    ) -> None:
        """Journal one accepted submission (before the client ack)."""
        self.store.journal.append(
            {
                "kind": "submit",
                "pid": pid,
                "program": program_index,
                "at": at,
            }
        )
        self._max_pid = max(self._max_pid, pid)

    def note_cancel(self, pid: int) -> None:
        self.store.journal.append({"kind": "cancel", "pid": pid})

    def after_drain(self, manager) -> bool:
        """Quiescent-point bookkeeping; returns True on a snapshot.

        Journals the pids decided since the last call (in ascending
        pid order, so a schedule fixes the journal's bytes), takes a
        snapshot when the journal has outgrown the cadence, or when it
        decided a pid the newest document holds live (a restart would
        re-run that pid, so no answer may go out on its outcome before
        a newer document), and flushes so everything acknowledged after
        this point is durable.
        """
        finished = sorted(manager.take_finished())
        for pid in finished:
            record = manager.records[pid]
            self.store.journal.append(
                {
                    "kind": "terminal",
                    "pid": pid,
                    "outcome": record.outcome,
                    "record": record_to_dict(record),
                }
            )
        took = False
        if (
            self.journal_len - self._snapshot_lsn
            >= self.snapshot_every
            or not self._adoptable.isdisjoint(finished)
        ):
            self.snapshot(manager)
            took = True
        self.store.flush()
        return took

    def snapshot(self, manager) -> int:
        """Checkpoint what changed since the last one; returns the
        journal watermark.

        Two steps, in this order: the trace events recorded since the
        previous snapshot are appended to the ``trace`` namespace and
        synced (with the journal); then the document is swapped in
        atomically.  A crash in between recovers the previous snapshot
        exactly; the appended events lie past its ``trace_len`` and are
        superseded by the next incarnation's first snapshot.
        """
        events = manager.trace.events
        if len(events) > self._trace_len:
            self.store.trace.append(
                self._trace_len,
                [
                    trace_event_to_row(event)
                    for event in events[self._trace_len:]
                ],
            )
        self.store.flush()
        processes = snapshot_live(manager)
        lsn = self.journal_len
        self.store.snapshots.save(
            checkpoint_to_dict(
                processes,
                {pid: manager.records[pid] for pid in manager.undecided()},
                self.codec,
                journal_lsn=lsn,
                trace_len=len(events),
                crashed_at=manager.engine.now,
                max_pid=self._max_pid,
            )
        )
        self._snapshot_lsn = lsn
        self._trace_len = len(events)
        self._adoptable = {process.pid for process in processes}
        manager.tracer.emit(
            StoreSnapshot(processes=len(processes), journal_lsn=lsn)
        )
        return lsn

    def final(self, manager) -> None:
        """Drain-time checkpoint of the settled world (a snapshot syncs
        everything it covers before its document goes in)."""
        self.snapshot(manager)
