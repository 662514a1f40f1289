"""The offline CPSR and ACA oracles for the subsystem layer.

A subsystem checks every commit online
(:class:`repro.subsystems.transactions.CommitCounters`) and keeps no
history.  This module records one from the outside and keeps the direct
transcriptions of the two guarantees the paper assumes of the layer,
for the tests to compare the online check against:

* :class:`HistoryRecorder` wraps a subsystem's :meth:`begin` and each
  transaction it hands out, and appends ``(txn_id, op, key)`` with op
  in ``{"r", "w", "c", "a"}`` for every operation that returned;
* :func:`is_serializable` — the committed projection's conflict graph
  is acyclic (CPSR);
* :func:`avoids_cascading_aborts` — every read of a key follows the
  termination of every other transaction that wrote it before.

Both are O(n²) in the history and meant for test-sized runs.

:func:`let_a_writer_past_held_locks` is the seeded mutation the online
check must catch wherever transactions run one at a time, served or
simulated.
"""

from __future__ import annotations

from repro.core.deadlock import find_cycle

History = list[tuple[int, str, str]]


class HistoryRecorder:
    """Record every operation of one subsystem's transactions.

    Installs itself as an instance attribute over ``subsystem.begin``,
    so the atomic path (``execute_atomic`` calls ``begin``) and a
    crash (``simulate_crash_and_recover`` calls each loser's ``abort``)
    are recorded too.  An operation that raised — a blocked or refused
    lock, a commit that failed validation — is not.
    """

    def __init__(self, subsystem) -> None:
        self.history: History = []
        begin = subsystem.begin

        def recorded_begin(timestamp=None):
            txn = begin(timestamp)
            self._wrap(txn)
            return txn

        subsystem.begin = recorded_begin

    def _wrap(self, txn) -> None:
        history = self.history
        read, write = txn.read, txn.write
        commit, abort = txn.commit, txn.abort

        def recorded_read(key):
            value = read(key)
            history.append((txn.txn_id, "r", key))
            return value

        def recorded_write(key, update):
            value = write(key, update)
            history.append((txn.txn_id, "w", key))
            return value

        def recorded_commit():
            commit()
            history.append((txn.txn_id, "c", ""))

        def recorded_abort():
            abort()
            history.append((txn.txn_id, "a", ""))

        txn.read, txn.write = recorded_read, recorded_write
        txn.commit, txn.abort = recorded_commit, recorded_abort


def record_pool(pool) -> dict[str, HistoryRecorder]:
    """A :class:`HistoryRecorder` on every subsystem of ``pool``."""
    return {sub.name: HistoryRecorder(sub) for sub in pool}


def serialization_graph(history: History) -> dict[int, dict[int, None]]:
    """Conflict graph over the committed transactions of ``history``.

    An adjacency mapping: an edge ``i -> j`` means a committed operation
    of ``i`` precedes a conflicting committed operation of ``j``.
    """
    committed = {txn for txn, op, _ in history if op == "c"}
    graph: dict[int, dict[int, None]] = {txn: {} for txn in committed}
    ops = [
        (txn, op, key)
        for txn, op, key in history
        if txn in committed and op in ("r", "w")
    ]
    for i, (txn_a, op_a, key_a) in enumerate(ops):
        for txn_b, op_b, key_b in ops[i + 1:]:
            if txn_a == txn_b or key_a != key_b:
                continue
            if "w" in (op_a, op_b):
                graph[txn_a][txn_b] = None
    return graph


def is_serializable(history: History) -> bool:
    """Whether the committed projection of ``history`` is CPSR."""
    return find_cycle(serialization_graph(history)) is None


def avoids_cascading_aborts(history: History) -> bool:
    """ACA: every read sees only already-terminated writes.

    For each read of ``key`` by ``t``, any earlier write of ``key`` by
    another transaction must be followed by that transaction's commit
    or abort before the read.
    """
    end = len(history)
    terminated_at: dict[int, int] = {}
    for pos, (txn, op, _) in enumerate(history):
        if op in ("c", "a"):
            terminated_at[txn] = pos
    for pos, (reader, op, key) in enumerate(history):
        if op != "r":
            continue
        for writer, wop, wkey in history[:pos]:
            if wop != "w" or wkey != key or writer == reader:
                continue
            if terminated_at.get(writer, end) >= pos:
                return False
    return True


def let_a_writer_past_held_locks(subsystem) -> None:
    """Break ``subsystem`` on purpose: data locks are granted to
    everyone, and after each write a second transaction writes the same
    key and commits first.  The overtaken transaction's commit must
    fail its online check."""
    subsystem.locks.acquire = lambda *args, **kwargs: None
    begin = subsystem.begin

    def overtaken_begin(timestamp=None):
        txn = begin(timestamp)
        write = txn.write

        def overtaken_write(key, update):
            value = write(key, update)
            intruder = begin()
            intruder.write(key, update)
            intruder.commit()
            return value

        txn.write = overtaken_write
        return txn

    subsystem.begin = overtaken_begin
