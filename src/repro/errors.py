"""Exception hierarchy for the process-locking reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish model errors (bad process programs, invalid
activity definitions) from runtime errors (protocol violations, subsystem
failures).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ActivityModelError(ReproError):
    """An activity definition violates the constraints of Table 1.

    Examples: a pivot activity declared with a compensating activity, a
    retriable activity with a non-zero failure probability, or a
    non-positive execution cost.
    """


class UnknownActivityError(ActivityModelError):
    """An activity type name was not found in the registry."""


class CommutativityError(ReproError):
    """The conflict relation is malformed.

    Raised when a conflict matrix references unknown activity types, is not
    symmetric, relates activities of different subsystems, or violates the
    perfect-commutativity assumption required by the protocol.
    """


class ProcessProgramError(ReproError):
    """A process program violates structural well-formedness.

    This covers violations of the guaranteed-termination property
    (Section 2.2 of the paper): alternatives hanging off non-pivot nodes,
    pivot nodes whose last alternative is not an assured termination tree,
    pivots inside parallel nodes, and similar shape errors.
    """


class ProcessStateError(ReproError):
    """An operation was attempted in an illegal process state.

    For example committing an aborting process, or aborting a process that
    has already passed its point of no return.
    """


class SchedulerError(ReproError):
    """The process manager reached an inconsistent internal state."""


class ProtocolError(ReproError):
    """The locking protocol detected an unrecoverable violation.

    Under a correct implementation this is only raised for genuinely
    unresolvable situations, e.g. a wait-for cycle consisting solely of
    processes that may not be aborted.
    """


class StarvationError(SchedulerError):
    """A process exceeded the resubmission bound.

    Process locking resubmits cascade-abort victims with their original
    timestamp so that they eventually become the oldest process and win all
    conflicts; a resubmission count past the configured bound therefore
    indicates a livelock bug rather than expected behaviour.
    """


class SubsystemError(ReproError):
    """Base class for errors raised by the transactional subsystems."""


class TransactionAborted(SubsystemError):
    """A subsystem transaction was aborted (explicitly or by deadlock)."""


class DataDeadlockAvoided(TransactionAborted):
    """A data-level lock request was refused by the wait-die policy."""


class CommitValidationError(SubsystemError):
    """A committing subsystem transaction failed backward validation.

    Another transaction committed a key this one had already read or
    written, so committing it would break serializability in commit
    order, which strict two-phase locking guarantees.  This is a bug
    below the process layer, never an outcome.
    """


class SubsystemWouldBlock(SubsystemError):
    """A data-level lock request must wait for older transactions.

    Raised by the stepwise transaction interface so that test drivers can
    reschedule the blocked operation; the atomic execution path used by the
    simulator never surfaces this.
    """

    def __init__(self, holders: frozenset[int]):
        super().__init__(f"blocked by transactions {sorted(holders)}")
        self.holders = holders


class ScheduleError(ReproError):
    """A process schedule object is malformed (theory layer)."""


class StorageError(ReproError):
    """Base class for errors raised by the durable storage layer.

    Covers configuration problems (unknown backend kind, missing store
    path, metadata mismatch between a store and the service opening it)
    as well as I/O-level failures surfaced by a backend.
    """


class WalCorruptionError(StorageError):
    """A durable log holds a record that fails validation.

    Raised when a complete frame's CRC32 does not match its payload, or
    when a frame's payload is not decodable.  A *torn tail* — an
    incomplete frame at the end of a log, the signature of a crash
    mid-append — is **not** corruption: recovery detects it and
    truncates deterministically.
    """

    def __init__(
        self, message: str, namespace: str = "", offset: int | None = None
    ):
        super().__init__(message)
        #: Store namespace (log name) the bad record lives in.
        self.namespace = namespace
        #: Byte offset of the offending record, when known.
        self.offset = offset
