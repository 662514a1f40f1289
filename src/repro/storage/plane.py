"""The persistence plane: snapshot + redo-journal recovery for a manager.

:class:`PersistencePlane` sits between a durable
:class:`~repro.storage.facade.Store` and one
:class:`~repro.scheduler.manager.ProcessManager` (usually the one
inside :class:`~repro.server.service.ProcessLockingService`) and owns
the durability protocol:

* every terminal outcome is journaled (``terminal`` records, carrying
  the final :class:`~repro.scheduler.events.ProcessRecord`) at the next
  quiescent point, before any client is acknowledged;
* at that same point, every submission and cancel accepted since is
  journaled (``submit`` / ``cancel`` records) unless its pid was
  decided meanwhile: a process decided in the drain that admitted it
  is journaled once, by its ``terminal`` record;
* once enough submissions, cancels and outcomes accumulate, or a pid
  the last snapshot holds live is decided, a **snapshot** is cut.  It
  writes what changed since the previous one: the trace events
  recorded since go to the append-only ``trace`` namespace, and a small
  document — live-process continuations, the records of undecided
  pids, the journal and trace watermarks — is swapped in atomically
  after them.  Finished processes are not copied anywhere: their
  ``terminal`` record is their durable home.  Nor is the trace kept
  twice: once a snapshot holds it, the manager's recorder forgets it;
  its verdict has seen it, so nothing reads it back (the ``check``
  verb reads the carried verdict).

Restart recovery composes the pieces: heal torn tails, rebuild the
:func:`repro.scheduler.recovery.crash` image from document + terminal
records (the trace prefix stays in the store; the recorder starts
past it, and the prefix is streamed through its verdict once), run it
through the *existing* :func:`repro.scheduler.recovery.recover`
machinery (locks re-acquired in sharing order, processes adopted
mid-flight), then walk the journal
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
    trace_event_from_row,
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
        identity: dict | None = None,
    ) -> None:
        """``snapshot_every`` counts the submissions, cancels and
        outcomes noted since the last snapshot, journaled or not.

        With ``identity``, the store's identity document is written
        on first open and verified after
        (:meth:`~repro.storage.facade.MetaRepository.ensure`) before
        any record is decoded: a store of another format is refused by
        name, not by the first record it cannot read."""
        self.store = store
        self.codec = ProgramCodec(catalog)
        self.snapshot_every = snapshot_every
        if identity is not None:
            store.meta.ensure(identity)
        # Each namespace is decoded once, here (the backend scanned the
        # log once, at open, and hands the payloads over); recover()
        # consumes and releases the two lists (and counts the time
        # reading them took as its own).
        started = time.monotonic()
        self._document = store.snapshots.load()
        self._journal = store.journal.records()
        self._read_seconds = time.monotonic() - started
        self._snapshot_lsn = 0
        #: Submissions, cancels and outcomes noted since the last
        #: snapshot, journaled or not: what ``snapshot_every`` counts.
        self._noted = 0
        #: The ``submit`` / ``cancel`` records noted since the last
        #: drain point, in order; :meth:`after_drain` journals those of
        #: pids still undecided.
        self._accepted: list[dict] = []
        #: Trace events the last snapshot covers; the next one appends
        #: from here, and the manager's recorder holds only the events
        #: past it.
        self._trace_len = 0
        self._max_pid = 0
        #: Pids the newest document holds live or awaiting resubmission:
        #: a restart adopts and re-runs them, whatever their ``terminal``
        #: records say.
        self._adoptable: set[int] = set()
        self.last_recovery: RecoveryInfo | None = None

    # ------------------------------------------------------------------
    # state probes
    # ------------------------------------------------------------------
    def has_state(self) -> bool:
        return self.journal_len > 0 or self._document is not None

    @property
    def journal_len(self) -> int:
        """Records in the journal: the backend's count."""
        return len(self.store.journal)

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
            # The trace prefix stays in the store; :meth:`recover`
            # streams it through the recorder's verdict.
            image = checkpoint_from_dict(document, self.codec)
        live = {snapshot.pid for snapshot in image.snapshots}
        submits: dict[int, int] = {}
        cancels: set[int] = set()
        for entry in self._journal:
            kind, pid = entry["kind"], entry["pid"]
            if kind == "submit":
                submits[pid] = entry["program"]
            elif kind == "cancel":
                cancels.add(pid)
            elif pid not in live:
                image.records[pid] = record_from_dict(
                    entry["record"], entry["outcome"]
                )
        # A pid decided in the drain that admitted it has no submit
        # record: its terminal record is its only trace in the journal.
        image.max_pid = max(
            image.max_pid, *(entry["pid"] for entry in self._journal), 0
        )
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
        self._noted = len(journal) - self._snapshot_lsn
        self._trace_len = image.trace_base
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
        # One pass over the stored prefix feeds the recorder's verdict
        # and finds the uid floor: after a *process* restart, finished
        # processes' uids live only in the trace, and a collision would
        # corrupt compensation pairing in the spliced schedule.
        verdict, floor, base = manager.trace.verdict, 0, image.trace_base
        rows = self.store.trace.events(base) if base else []
        for position in range(base):
            event = trace_event_from_row(rows[position], position, self.codec)
            verdict.feed(event)
            floor = max(floor, event.uid)
        ensure_uid_floor(floor)
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
        """Note one accepted submission; :meth:`after_drain` journals
        it before the client is acknowledged, unless the drain decided
        it."""
        self._accepted.append(
            {"kind": "submit", "pid": pid, "program": program_index, "at": at}
        )
        self._noted += 1
        self._max_pid = max(self._max_pid, pid)

    def note_cancel(self, pid: int) -> None:
        """Note one accepted cancel; journaled as :meth:`note_submit`
        is."""
        self._accepted.append({"kind": "cancel", "pid": pid})
        self._noted += 1

    def after_drain(self, manager) -> bool:
        """Quiescent-point bookkeeping; returns True on a snapshot.

        Journals the submissions and cancels noted since the last call
        whose pids are still undecided (a decided pid's ``terminal``
        record says all they would), then the pids decided since the
        last call (in ascending pid order, so a schedule fixes the
        journal's bytes); takes a snapshot when the noted records have
        outgrown the cadence, or when it decided a pid the newest
        document holds live (a restart would re-run that pid, so no
        answer may go out on its outcome before a newer document); and
        flushes, so everything acknowledged after this point is
        durable.
        """
        journal = self.store.journal
        for entry in self._accepted:
            if manager.outcome(entry["pid"]) is None:
                journal.append(entry)
        self._accepted.clear()
        finished = sorted(manager.take_finished())
        for pid in finished:
            record = manager.records[pid]
            journal.append(
                {
                    "kind": "terminal",
                    "pid": pid,
                    "outcome": record.outcome,
                    "record": record_to_dict(record),
                }
            )
        self._noted += len(finished)
        took = False
        if (
            self._noted >= self.snapshot_every
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
        superseded by the next incarnation's first snapshot.  After the
        swap the manager's recorder forgets the events the store now
        holds.
        """
        trace = manager.trace
        trace_len = len(trace)
        if trace_len > self._trace_len:
            self.store.trace.append(
                self._trace_len,
                [
                    trace_event_to_row(event)
                    for event in trace.events[self._trace_len - trace.base:]
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
                trace_len=trace_len,
                crashed_at=manager.engine.now,
                max_pid=self._max_pid,
            )
        )
        self._snapshot_lsn = lsn
        self._noted = 0
        self._trace_len = trace_len
        self._adoptable = {process.pid for process in processes}
        trace.forget(trace_len)
        manager.tracer.emit(
            StoreSnapshot(processes=len(processes), journal_lsn=lsn)
        )
        return lsn

    def final(self, manager) -> None:
        """Drain-time checkpoint of the settled world (a snapshot syncs
        everything it covers before its document goes in)."""
        self.snapshot(manager)
