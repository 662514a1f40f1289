"""The activity-type lock table with ordered sharing.

For each activity type the table keeps the ordered list of live locks (the
paper's "ordered list ... which comprises the locks held for all
invocations of that activity").  Sharing order is the global acquisition
order, materialized in :attr:`LockEntry.position`.

The table is pure bookkeeping: all *policy* (who may share behind whom,
who gets aborted) lives in :mod:`repro.core.protocol`.

Bookkeeping is *incremental* (see ``docs/performance.md``): besides the
primary per-type and per-process lists, the table maintains

* a per-process list of C-mode locks (kept current through
  Comp→Piv conversions, which notify the table);
* a per-process count of P-mode locks (powers :meth:`p_lock_holders`);
* the **blocker index**: a pair of adjacency maps over pids recording,
  for every process, which other live processes hold a conflicting lock
  with a smaller sharing position (``blocked_by``) and the transposed
  "who waits on me" view (``blocks``).  Because positions are drawn from
  a strictly increasing global counter, every conflicting lock that
  exists when a new lock is appended has a smaller position — so edges
  are added on :meth:`acquire` and only ever removed by
  :meth:`release_all`, making :meth:`commit_blockers` and
  :meth:`on_hold` O(1) lookups instead of O(locks²) rescans.

The per-type lists are position-sorted *by construction* (appends use a
monotone counter; releases preserve relative order), so
:meth:`conflicting_locks` flat-collects the candidate lists and lets
timsort exploit the already-sorted runs (positions are globally unique,
so this reproduces the k-way merge order exactly).

Conflict discovery runs on the **compiled plane**
(:meth:`ConflictMatrix.compiled`): the table keeps a bitmask of types
with at least one live lock (``_live_mask``) plus one held-types
bitmask per process (``_pid_type_masks``), so "which held types
conflict with ``t``" is ``masks[t] & _live_mask`` and "does P hold
anything conflicting with ``t``" is one AND against P's mask — no
frozenset iteration, no per-pair frozenset allocation.  The table adopts
the plane at construction and keeps it: the relation is fixed once
compiled, and a type registered after that is refused at its first
:meth:`acquire`, before the table changes.

Every mutation checks what it changed before it returns, and raises
:class:`~repro.errors.ProtocolError` on a broken invariant: the one
safety net, on in every run, served or simulated.  :meth:`acquire`
re-derives the new lock's blockers from the plane's row and the
per-type lists, not from the masks it just updated;
:meth:`release_all` checks that no index still names the pid; a
Comp→Piv conversion checks both mode indexes; and construction checks
each row of the plane against the declared conflict pairs, once.  Each
check costs what its step costs.  The whole-table oracle lives under
``tests/`` (``tests/test_core/reference.py``).
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import attrgetter

from repro.activities.commutativity import (
    ConflictMatrix,
    iter_bits,
    pair_ends,
)
from repro.core.locks import LockEntry, LockMode
from repro.errors import ProtocolError
from repro.process.instance import Process

#: C-level sort key shared by every position-ordered collect.
_BY_POSITION = attrgetter("position")
#: The blocker row of a pid with none.
_NONE: frozenset[int] = frozenset()


class LockTable:
    """Per-activity-type ordered lock lists plus incremental indexes."""

    def __init__(self, conflicts: ConflictMatrix) -> None:
        self._conflicts = conflicts
        self._by_type: dict[str, list[LockEntry]] = {}
        self._by_pid: dict[int, list[LockEntry]] = {}
        self._c_by_pid: dict[int, list[LockEntry]] = {}
        self._p_counts: dict[int, int] = {}
        #: pid -> pids holding an earlier conflicting lock (live only).
        self._blocked_by: dict[int, set[int]] = {}
        #: pid -> pids holding a later conflicting lock (the transpose).
        self._blocks: dict[int, set[int]] = {}
        self._position = 0
        #: The compiled conflict plane, adopted once (CON is fixed).
        self._plane = plane = conflicts.compiled()
        self._check_plane(plane)
        #: Bitmask of type ids with at least one live lock.
        self._live_mask = 0
        #: pid -> bitmask of type ids the process holds locks on.
        #: Bits are only ever cleared wholesale by :meth:`release_all`
        #: (strict 2PL: locks release all-at-once), which keeps the
        #: per-process masks exact without per-type refcounts.
        self._pid_type_masks: dict[int, int] = {}
        #: Live locks in all, and per subsystem (zeros included, in
        #: registry order), counted on acquire and release: a traced
        #: run's gauge sampler reads both on every event.
        self._lock_count = 0
        #: Type name -> subsystem, for every type of the plane.
        self._subsystem_of = {
            name: conflicts.registry.get(name).subsystem
            for name in plane.names
        }
        self._by_subsystem = dict.fromkeys(self._subsystem_of.values(), 0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def acquire(
        self,
        process: Process,
        type_name: str,
        mode: LockMode,
        activity_uid: int | None = None,
    ) -> LockEntry:
        """Append a granted lock to the type's list (policy pre-checked);
        a type the plane lacks raises before the table changes."""
        type_id = self._plane.id_of(type_name)
        self._position += 1
        entry = LockEntry(
            process=process,
            type_name=type_name,
            mode=mode,
            position=self._position,
            activity_uid=activity_uid,
            table=self,
        )
        pid = process.pid
        by_type = self._by_type
        type_list = by_type.get(type_name)
        if type_list is None:
            type_list = by_type[type_name] = [entry]
        else:
            type_list.append(entry)
        by_pid = self._by_pid
        pid_list = by_pid.get(pid)
        if pid_list is None:
            by_pid[pid] = [entry]
        else:
            pid_list.append(entry)
        p_count = self._p_counts.get(pid, 0)
        if mode is LockMode.C:
            c_list = self._c_by_pid.get(pid)
            if c_list is None:
                self._c_by_pid[pid] = [entry]
            else:
                c_list.append(entry)
        else:
            self._p_counts[pid] = p_count + 1
        self._index(entry, type_id)
        self._lock_count += 1
        subsystem = self._subsystem_of[type_name]
        self._by_subsystem[subsystem] += 1
        if (
            type_list[-1] is not entry
            or len(type_list) > 1
            and type_list[-2].position >= entry.position
        ):
            raise ProtocolError(
                f"acquire of {entry}: not last in the list of {type_name!r}"
            )
        if self._by_subsystem[subsystem] < len(type_list):
            raise ProtocolError(
                f"acquire of {entry}: {subsystem!r} counts fewer locks "
                f"than {type_name!r} holds"
            )
        if (
            self._c_by_pid[pid][-1] is not entry
            if mode is LockMode.C
            else self._p_counts[pid] != p_count + 1
        ):
            raise ProtocolError(
                f"acquire of {entry}: the {mode.value}-lock index of P{pid} "
                f"missed it"
            )
        return entry

    def _index(self, entry: LockEntry, type_id: int) -> None:
        """Enter ``entry`` into the masks and the blocker index, then
        check what changed against the per-type lists."""
        pid = entry.process.pid
        plane = self._plane
        blocked_by = self._blocked_by
        # The check walks the lists the masks summarize: the foreign
        # holders of an earlier lock on a conflicting type.
        by_type = self._by_type
        names = plane.names
        position = entry.position
        blockers = {
            other.process.pid
            for i in iter_bits(plane.masks[type_id])
            for other in by_type.get(names[i], ())
            if other.position < position
        }
        blockers.discard(pid)
        expected = blockers.union(blocked_by.get(pid, ()))
        bit = 1 << type_id
        self._live_mask |= bit
        pid_masks = self._pid_type_masks
        pid_masks[pid] = pid_masks.get(pid, 0) | bit
        # Blocker index: every live conflicting lock predates this one
        # (positions are globally monotone), so each foreign holder
        # becomes a blocker of ``pid`` right now — and never later.
        # One AND per live process decides holdership — the per-type
        # entry lists are never walked here.
        conflict_mask = plane.masks[type_id]
        if conflict_mask & self._live_mask:
            add_edge = self._add_block_edge
            for other_pid, held in pid_masks.items():
                if other_pid != pid and held & conflict_mask:
                    add_edge(other_pid, pid)
        if not self._live_mask & pid_masks[pid] & bit:
            raise ProtocolError(f"{entry}: a type mask missed its type")
        if blocked_by.get(pid, _NONE) != expected:
            raise ProtocolError(
                f"{entry}: blockers of P{pid} are "
                f"{sorted(blocked_by.get(pid, ()))}, not {sorted(expected)}"
            )
        blocks = self._blocks
        for blocker in blockers:
            if pid not in blocks.get(blocker, ()):
                raise ProtocolError(
                    f"{entry}: P{blocker} does not list P{pid} as waiting"
                )

    def release_all(self, pid: int) -> list[LockEntry]:
        """Drop every lock of ``pid`` (commit or abort of the process)."""
        released = self._by_pid.pop(pid, [])
        self._lock_count -= len(released)
        by_subsystem, subsystem_of = self._by_subsystem, self._subsystem_of
        for entry in released:
            by_subsystem[subsystem_of[entry.type_name]] -= 1
        affected_types = {entry.type_name for entry in released}
        for type_name in affected_types:
            entries = self._by_type.get(type_name)
            if entries is None:  # pragma: no cover - defensive
                raise ProtocolError(
                    f"lock table corruption while releasing locks of "
                    f"P{pid} on {type_name!r}"
                )
            survivors = [e for e in entries if e.process.pid != pid]
            if survivors:
                self._by_type[type_name] = survivors
            else:
                del self._by_type[type_name]
                self._live_mask &= ~(1 << self._plane.index[type_name])
        self._pid_type_masks.pop(pid, None)
        self._c_by_pid.pop(pid, None)
        self._p_counts.pop(pid, None)
        waiters = self._blocks.pop(pid, ())
        for waiter in waiters:
            blockers = self._blocked_by.get(waiter)
            if blockers is not None:
                blockers.discard(pid)
                if not blockers:
                    del self._blocked_by[waiter]
        blockers = self._blocked_by.pop(pid, ())
        for blocker in blockers:
            waiters_of = self._blocks.get(blocker)
            if waiters_of is not None:
                waiters_of.discard(pid)
                if not waiters_of:
                    del self._blocks[blocker]
        self._check_released(pid, affected_types, waiters, blockers)
        return released

    def _check_released(self, pid, types, waiters, blockers) -> None:
        """No index names ``pid`` after its release: ``detach`` is the
        only way a pid leaves the protocol, so this is also "every held
        lock belongs to a live process"."""
        if (
            pid in self._by_pid
            or pid in self._c_by_pid
            or pid in self._p_counts
            or pid in self._pid_type_masks
            or pid in self._blocked_by
            or pid in self._blocks
        ):
            raise ProtocolError(f"release of P{pid}: an index still has it")
        if not self._by_pid and (
            self._lock_count or any(self._by_subsystem.values())
        ):
            raise ProtocolError(
                f"release of P{pid}: no lock is held, but the lock "
                f"counts say {self._lock_count} {self._by_subsystem}"
            )
        for waiter in waiters:
            if pid in self._blocked_by.get(waiter, ()):
                raise ProtocolError(
                    f"release of P{pid}: P{waiter} still waits on it"
                )
        for blocker in blockers:
            if pid in self._blocks.get(blocker, ()):
                raise ProtocolError(
                    f"release of P{pid}: P{blocker} still blocks it"
                )
        by_type = self._by_type
        holders = {e.process.pid for t in types for e in by_type.get(t, ())}
        if pid in holders:
            raise ProtocolError(f"release of P{pid}: a type list still has it")
        index = self._plane.index
        live = self._live_mask
        for type_name in types:
            if (type_name in by_type) != bool(live >> index[type_name] & 1):
                raise ProtocolError(
                    f"release of P{pid}: the live-type bit of "
                    f"{type_name!r} disagrees with its list"
                )

    def _note_upgrade(self, entry: LockEntry) -> None:
        """Keep the mode indexes current through a Comp→Piv conversion.

        Called by :meth:`LockEntry.upgrade_to_p` after the mode flip; the
        blocker index is mode-agnostic and needs no update.
        """
        pid = entry.pid
        c_locks = self._c_by_pid.get(pid)
        if c_locks is not None:
            survivors = [e for e in c_locks if e is not entry]
            if survivors:
                self._c_by_pid[pid] = survivors
            else:
                del self._c_by_pid[pid]
        p_count = self._p_counts.get(pid, 0)
        self._p_counts[pid] = p_count + 1
        if any(e is entry for e in self._c_by_pid.get(pid, ())):
            raise ProtocolError(f"upgrade of {entry}: still a C lock")
        if self._p_counts[pid] != p_count + 1:
            raise ProtocolError(f"upgrade of {entry}: P count missed it")

    def _add_block_edge(self, blocker: int, waiter: int) -> None:
        self._blocked_by.setdefault(waiter, set()).add(blocker)
        self._blocks.setdefault(blocker, set()).add(waiter)

    def _check_plane(self, plane) -> None:
        """Each compiled conflict row is the one the declared pairs give
        (once per table: the pairs are the plane's oracle)."""
        index = plane.index
        rows = [0] * len(plane.names)
        for pair in self._conflicts.pairs():
            first, second = pair_ends(pair)
            rows[index[first]] |= 1 << index[second]
            rows[index[second]] |= 1 << index[first]
        for name, row, mask in zip(plane.names, rows, plane.masks):
            if row != mask:
                raise ProtocolError(
                    f"compiled conflict row of {name!r} disagrees with "
                    f"the declared conflict pairs"
                )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def locks_of(self, pid: int) -> tuple[LockEntry, ...]:
        """Live locks of one process, in acquisition order."""
        return tuple(self._by_pid.get(pid, ()))

    def c_locks_of(self, pid: int) -> tuple[LockEntry, ...]:
        """Live C-mode locks of one process, in acquisition order."""
        return tuple(self._c_by_pid.get(pid, ()))

    def modes_of(self, pid: int) -> str:
        """The lock modes one process holds: ``""``, ``"C"``, ``"P"``
        or ``"CP"`` (a blocker's snapshot in a defer or cascade event),
        read off the two per-pid lists' lengths."""
        held = len(self._by_pid.get(pid, ()))
        c_held = len(self._c_by_pid.get(pid, ()))
        return ("C" if c_held else "") + ("P" if held > c_held else "")

    def conflicting_locks(
        self, type_name: str, exclude_pid: int | None = None
    ) -> list[LockEntry]:
        """Live locks on types conflicting with ``type_name``.

        Includes locks on ``type_name`` itself when the type
        self-conflicts (``CON(t, t)``), which is the common case for
        state-changing activities under perfect commutativity.  The
        per-type lists are position-sorted by construction and positions
        are globally unique, so a flat collect + timsort over the sorted
        runs reproduces the merge order without ``heapq.merge``'s
        per-element key calls.
        """
        plane = self._plane
        live = plane.masks[plane.id_of(type_name)] & self._live_mask
        if not live:
            return []
        by_type = self._by_type
        names = plane.names
        if not live & (live - 1):
            # Single live conflicting type: its list is already sorted.
            entries = by_type[names[live.bit_length() - 1]]
            if exclude_pid is None:
                return list(entries)
            return [e for e in entries if e.pid != exclude_pid]
        result: list[LockEntry] = []
        extend = result.extend
        while live:
            low = live & -live
            entries = by_type[names[low.bit_length() - 1]]
            if exclude_pid is None:
                extend(entries)
            else:
                extend(e for e in entries if e.pid != exclude_pid)
            live ^= low
        result.sort(key=_BY_POSITION)
        return result

    def probe_blocked(
        self, type_name: str, exclude_pid: int, ts: int, aborting
    ) -> bool:
        """Whether any foreign conflicting holder is younger or aborting.

        The read-only half of the Comp-Rule for a RUNNING requester with
        timestamp ``ts`` (see
        :meth:`ProcessLockManager.probe_c_grants`), pushed down into the
        table and decided per *process*, not per lock: one AND against
        each live process's held-types mask finds the foreign holders,
        and every lock of a process shares its timestamp/state, so the
        per-entry scan collapses to a per-pid scan with early exit on
        the first counterexample.  ``aborting`` is the
        ``ProcessState.ABORTING`` sentinel (passed in to keep the table
        policy-free: it compares identity, it doesn't interpret states).
        """
        plane = self._plane
        conflict_mask = plane.masks[plane.id_of(type_name)]
        if not conflict_mask & self._live_mask:
            return False
        by_pid = self._by_pid
        for other_pid, held in self._pid_type_masks.items():
            if other_pid == exclude_pid or not held & conflict_mask:
                continue
            holder = by_pid[other_pid][0].process
            if holder.timestamp >= ts or holder.state is aborting:
                return True
        return False

    def entry_for_activity(
        self, pid: int, activity_uid: int
    ) -> LockEntry | None:
        """The lock acquired for a specific activity invocation."""
        for entry in self._by_pid.get(pid, ()):
            if entry.activity_uid == activity_uid:
                return entry
        return None

    def commit_blockers(self, process: Process) -> set[int]:
        """Processes that must terminate before ``process`` may commit.

        Commit-Rule: a process cannot commit while any of its locks is on
        hold, i.e. while another live process holds a conflicting lock
        with a smaller sharing position.  Served from the incremental
        blocker index in O(answer).
        """
        return set(self._blocked_by.get(process.pid, ()))

    def on_hold(self, process: Process) -> bool:
        """Whether any lock of ``process`` is currently on hold."""
        return bool(self._blocked_by.get(process.pid))

    def holders(self) -> set[int]:
        """Pids of all processes currently holding locks."""
        return set(self._by_pid)

    def p_lock_holders(self) -> set[int]:
        """Pids of processes holding at least one P-mode lock."""
        return set(self._p_counts)

    def iter_entries(self) -> Iterator[LockEntry]:
        for entries in self._by_pid.values():
            yield from entries

    @property
    def lock_count(self) -> int:
        return self._lock_count

    def locks_by_subsystem(self) -> dict[str, int]:
        """Live locks per subsystem of the plane's types, zeros
        included, in registry order."""
        return dict(self._by_subsystem)
