"""Transactional subsystem facade (the paper's bottom layer).

A :class:`TransactionalSubsystem` bundles a record store, a data-level
strict-2PL lock manager, and the per-key commit counters every commit is
validated against (:class:`~repro.subsystems.transactions.CommitCounters`:
the paper's CPSR assumption, checked online; ACA holds by construction).
It offers two execution paths:

* :meth:`execute_atomic` — run a whole transaction program in one step;
  this is what the process manager uses when an activity commits in the
  simulation (each activity is atomic by definition, Section 2);
* :meth:`begin` — hand out a stepwise :class:`Transaction` so tests can
  interleave operations of several transactions.

The subsystem keeps no per-operation state: what it holds grows with
its keys, not with the transactions it has run.
"""

from __future__ import annotations

import itertools

from repro.errors import SubsystemError
from repro.subsystems.lock_manager import DataLockManager
from repro.subsystems.programs import ProgramCatalog, TransactionProgram
from repro.subsystems.storage import DurableRecordStore, RecordStore
from repro.subsystems.transactions import (
    CommitCounters,
    Transaction,
    TransactionState,
)


class TransactionalSubsystem:
    """One independent transactional application (CPSR + ACA)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.store = RecordStore()
        self.locks = DataLockManager()
        self.catalog = ProgramCatalog()
        self._active: list[Transaction] = []
        #: What every commit is validated against; ``counters.validated``
        #: counts the commits that passed.
        self.counters = CommitCounters()
        self._txn_ids = itertools.count(1)
        self.committed_count = 0
        self.aborted_count = 0
        #: Virtual time until which the subsystem is unavailable (fault
        #: injection); ``0.0`` means up.  See :meth:`begin_outage`.
        self.down_until: float = 0.0
        self.outages = 0

    # ------------------------------------------------------------------
    # availability (fault injection)
    # ------------------------------------------------------------------
    def begin_outage(self, until: float) -> None:
        """Mark the subsystem unavailable until virtual time ``until``.

        The process manager's fault injector turns activity completions
        on a down subsystem into failures (non-retriable) or transient
        retries (retriable); the subsystem itself keeps serving
        compensations, which the paper assumes always succeed.
        """
        self.down_until = max(self.down_until, until)
        self.outages += 1

    # ------------------------------------------------------------------
    # durability (repro.storage)
    # ------------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Back this subsystem with a durable store.

        Replaces the record store with a
        :class:`~repro.subsystems.storage.DurableRecordStore`, reloaded
        from the store's redo frames; records held before the attach
        go in as one more frame.  A previous incarnation's losers left
        nothing there: only a commit writes.  Must be called
        before the first transaction begins — live transactions keep
        references to the stores they started with.
        """
        held = self.store.snapshot()
        self.store = DurableRecordStore(
            store.subsystem_data(self.name),
            default=self.store._default,
        )
        if held:
            self.store.commit(held)

    # ------------------------------------------------------------------
    # execution paths
    # ------------------------------------------------------------------
    def begin(self, timestamp: int | None = None) -> Transaction:
        """Start a stepwise transaction (mainly for substrate tests)."""
        txn_id = next(self._txn_ids)
        txn = Transaction(
            txn_id=txn_id,
            timestamp=timestamp if timestamp is not None else txn_id,
            store=self.store,
            locks=self.locks,
            counters=self.counters,
        )
        self._active = [
            t
            for t in self._active
            if t.state is TransactionState.ACTIVE
        ]
        self._active.append(txn)
        return txn

    def execute_atomic(
        self, program: TransactionProgram, timestamp: int | None = None
    ) -> list[object]:
        """Run ``program`` as one transaction, committing on success.

        The atomic path can never block: it starts with no locks held and
        releases everything before returning, so lock conflicts with other
        in-flight transactions cannot exist in simulator use (activities
        are applied at distinct virtual instants).

        Returns the list of values read by the program.
        """
        txn = self.begin(timestamp)
        try:
            results = program.run(txn)
        except Exception:
            txn.abort()
            self.aborted_count += 1
            raise
        txn.commit()
        self.committed_count += 1
        return results

    def execute_activity(
        self, activity_name: str, timestamp: int | None = None
    ) -> list[object]:
        """Run the transaction program registered for an activity type."""
        return self.execute_atomic(
            self.catalog.get(activity_name), timestamp
        )

    def simulate_crash_and_recover(self) -> None:
        """Crash the subsystem: every in-flight transaction loses its
        buffer and its locks.

        A loser's writes never left its buffer, so the store — memory
        and any durable store underneath — already holds exactly the
        committed state, and recovery has nothing to undo.  In-flight
        :class:`Transaction` handles become unusable (they end
        aborted); callers must begin new ones.
        """
        for txn in self._active:
            if txn.state is TransactionState.ACTIVE:
                txn.abort()
                self.aborted_count += 1
        self._active = []

    def register_program(
        self, activity_name: str, program: TransactionProgram
    ) -> None:
        """Bind an activity type name to its transaction program."""
        self.catalog.register(activity_name, program)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionalSubsystem({self.name!r}, "
            f"{len(self.store)} records, "
            f"{self.committed_count} commits)"
        )


class SubsystemPool:
    """The universe of available subsystems, keyed by name.

    A pool may be backed by a durable :class:`repro.storage.Store`
    (``store=`` or a later :meth:`attach_store`): every subsystem —
    existing and future — then persists its committed transactions
    through it.  :func:`~repro.scheduler.manager.make_manager` attaches
    the store configured on :class:`ManagerConfig` (or ambiently via
    the ``REPRO_STORE`` knob) exactly once per pool.
    """

    def __init__(self, store=None) -> None:
        self._subsystems: dict[str, TransactionalSubsystem] = {}
        self.store = None
        if store is not None:
            self.attach_store(store)

    def attach_store(self, store) -> None:
        """Back every subsystem with ``store``.

        Idempotent for the same store object; re-attaching a
        *different* store is refused — half the history in one place
        and half in another would make neither recoverable.
        """
        if self.store is store:
            return
        if self.store is not None:
            raise SubsystemError(
                "subsystem pool is already attached to a store"
            )
        self.store = store
        for subsystem in self._subsystems.values():
            subsystem.attach_store(store)

    def create(self, name: str) -> TransactionalSubsystem:
        if name in self._subsystems:
            raise SubsystemError(f"subsystem {name!r} already exists")
        subsystem = TransactionalSubsystem(name)
        self._subsystems[name] = subsystem
        if self.store is not None:
            subsystem.attach_store(self.store)
        return subsystem

    def get(self, name: str) -> TransactionalSubsystem:
        try:
            return self._subsystems[name]
        except KeyError:
            raise SubsystemError(f"unknown subsystem {name!r}") from None

    def get_or_create(self, name: str) -> TransactionalSubsystem:
        if name not in self._subsystems:
            return self.create(name)
        return self._subsystems[name]

    def __iter__(self):
        return iter(self._subsystems.values())

    def __len__(self) -> int:
        return len(self._subsystems)

    def __contains__(self, name: str) -> bool:
        return name in self._subsystems
