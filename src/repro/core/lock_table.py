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
  :meth:`release_all` (or rebuilt wholesale when the conflict relation
  changes), making :meth:`commit_blockers` and
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
frozenset iteration, no per-pair frozenset allocation.  The plane is
adopted by identity; whenever the conflict relation mutates or a type
registers late, :meth:`_live_plane` — the one resync point — rebuilds
the masks and the blocker index against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter

from repro.activities.commutativity import ConflictMatrix
from repro.core.locks import LockEntry, LockMode
from repro.errors import ProtocolError
from repro.process.instance import Process

#: C-level sort key shared by every position-ordered collect.
_BY_POSITION = attrgetter("position")


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
        #: Adopted compiled conflict plane (resynced by identity).
        self._plane = conflicts.compiled()
        #: Bitmask of type ids with at least one live lock.
        self._live_mask = 0
        #: pid -> bitmask of type ids the process holds locks on.
        #: Bits are only ever cleared wholesale by :meth:`release_all`
        #: (strict 2PL: locks release all-at-once), which keeps the
        #: per-process masks exact without per-type refcounts.
        self._pid_type_masks: dict[int, int] = {}

    def _live_plane(self):
        """The current compiled plane, resyncing the table to a recompile.

        The one resync point: the plane is replaced whenever the
        conflict relation mutates (``declare_conflict`` /
        ``close_perfect``) or a type registers late.  Type ids are
        stable across recompiles (the registry is append-only), but the
        relation may have changed, so the live masks and the blocker
        index are rebuilt by replaying the live locks in position order
        against the new masks — exactly what :meth:`acquire` would have
        derived had the relation held from the start.
        """
        plane = self._conflicts.compiled()
        if plane is not self._plane:
            self._plane = plane
            index = plane.index
            mask_of = plane.mask_of
            self._blocked_by = {}
            self._blocks = {}
            pid_masks: dict[int, int] = {}
            for entry in sorted(self.iter_entries(), key=_BY_POSITION):
                pid = entry.pid
                conflict_mask = mask_of[entry.type_name]
                for other_pid, held in pid_masks.items():
                    if other_pid != pid and held & conflict_mask:
                        self._add_block_edge(other_pid, pid)
                pid_masks[pid] = (
                    pid_masks.get(pid, 0) | 1 << index[entry.type_name]
                )
            live = 0
            for held in pid_masks.values():
                live |= held
            self._live_mask = live
            self._pid_type_masks = pid_masks
        return plane

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
        """Append a granted lock to the type's list (policy pre-checked)."""
        plane = self._live_plane()
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
            by_type[type_name] = [entry]
        else:
            type_list.append(entry)
        by_pid = self._by_pid
        pid_list = by_pid.get(pid)
        if pid_list is None:
            by_pid[pid] = [entry]
        else:
            pid_list.append(entry)
        if mode is LockMode.C:
            c_list = self._c_by_pid.get(pid)
            if c_list is None:
                self._c_by_pid[pid] = [entry]
            else:
                c_list.append(entry)
        else:
            self._p_counts[pid] = self._p_counts.get(pid, 0) + 1
        bit = 1 << plane.id_of(type_name)
        self._live_mask |= bit
        pid_masks = self._pid_type_masks
        pid_masks[pid] = pid_masks.get(pid, 0) | bit
        # Blocker index: every live conflicting lock predates this one
        # (positions are globally monotone), so each foreign holder
        # becomes a blocker of ``pid`` right now — and never later.
        # One AND per live process decides holdership — the per-type
        # entry lists are never walked here.
        conflict_mask = plane.mask_of[type_name]
        if conflict_mask & self._live_mask:
            add_edge = self._add_block_edge
            for other_pid, held in pid_masks.items():
                if other_pid != pid and held & conflict_mask:
                    add_edge(other_pid, pid)
        return entry

    def release_all(self, pid: int) -> list[LockEntry]:
        """Drop every lock of ``pid`` (commit or abort of the process)."""
        released = self._by_pid.pop(pid, [])
        affected_types = {entry.type_name for entry in released}
        for type_name in affected_types:
            entries = self._by_type.get(type_name)
            if entries is None:  # pragma: no cover - defensive
                raise ProtocolError(
                    f"lock table corruption while releasing locks of "
                    f"P{pid} on {type_name!r}"
                )
            survivors = [e for e in entries if e.pid != pid]
            if survivors:
                self._by_type[type_name] = survivors
            else:
                del self._by_type[type_name]
                index = self._plane.index.get(type_name)
                if index is not None:
                    self._live_mask &= ~(1 << index)
        self._pid_type_masks.pop(pid, None)
        self._c_by_pid.pop(pid, None)
        self._p_counts.pop(pid, None)
        for waiter in self._blocks.pop(pid, ()):
            blockers = self._blocked_by.get(waiter)
            if blockers is not None:
                blockers.discard(pid)
                if not blockers:
                    del self._blocked_by[waiter]
        for blocker in self._blocked_by.pop(pid, ()):
            waiters = self._blocks.get(blocker)
            if waiters is not None:
                waiters.discard(pid)
                if not waiters:
                    del self._blocks[blocker]
        return released

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
        self._p_counts[pid] = self._p_counts.get(pid, 0) + 1

    def _add_block_edge(self, blocker: int, waiter: int) -> None:
        self._blocked_by.setdefault(waiter, set()).add(blocker)
        self._blocks.setdefault(blocker, set()).add(waiter)

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

    def locks_on(self, type_name: str) -> tuple[LockEntry, ...]:
        """The ordered lock list of one activity type."""
        return tuple(self._by_type.get(type_name, ()))

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
        plane = self._live_plane()
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
        plane = self._live_plane()
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
        self._live_plane()
        return set(self._blocked_by.get(process.pid, ()))

    def blockers_of(self, pid: int) -> frozenset[int]:
        """Pids holding an earlier conflicting lock than ``pid``."""
        self._live_plane()
        return frozenset(self._blocked_by.get(pid, ()))

    def waiters_on(self, pid: int) -> frozenset[int]:
        """Pids whose commit is held up by ``pid`` (the reverse map).

        The transpose of :meth:`blockers_of`: exactly the processes whose
        locks are on hold behind a lock of ``pid``.  Consumers that used
        to rebuild this relation by scanning every live lock (wait-graph
        construction, wake-up scheduling) read it here instead.
        """
        self._live_plane()
        return frozenset(self._blocks.get(pid, ()))

    def on_hold(self, process: Process) -> bool:
        """Whether any lock of ``process`` is currently on hold."""
        self._live_plane()
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
        return sum(len(entries) for entries in self._by_pid.values())

    def locks_by_subsystem(self) -> dict[str, int]:
        """Live locks per subsystem of the registry, zeros included.

        Read off the per-type lists when asked (the gauge sampler), in
        registry order; nothing is counted on acquire or release.
        """
        by_type = self._by_type
        counts: dict[str, int] = {}
        for activity_type in self._conflicts.registry:
            subsystem = activity_type.subsystem
            counts[subsystem] = counts.get(subsystem, 0) + len(
                by_type.get(activity_type.name, ())
            )
        return counts

    def check_invariants(self, live_pids: Iterable[int]) -> None:
        """Audit the table's structural invariants:

        * every held lock belongs to a live process;
        * per-type lists are position-sorted;
        * the primary indexes agree;
        * the mode indexes (C lists, P counts) match the entries;
        * the blocker index matches a naive recomputation;
        * the live-type and per-process bitmasks match a recomputation
          from the primary lists, and the compiled conflict rows of
          every live type agree with the dict-based matrix (the
          dev-time oracle for the compiled plane).

        Resyncs with the conflict matrix first: after a mid-run
        ``declare_conflict`` the indexes are stale by design until the
        next query, and the audit must judge the synced state.
        """
        self._live_plane()
        live = set(live_pids)
        seen_ids: set[int] = set()
        for type_name, entries in self._by_type.items():
            positions = [entry.position for entry in entries]
            if positions != sorted(positions):
                raise ProtocolError(
                    f"lock list of {type_name!r} is not position-sorted"
                )
            for entry in entries:
                seen_ids.add(entry.lock_id)
                if entry.pid not in live:
                    raise ProtocolError(
                        f"lock {entry} belongs to a terminated process"
                    )
        index_ids = {e.lock_id for e in self.iter_entries()}
        if index_ids != seen_ids:
            raise ProtocolError("lock table indexes disagree")
        for pid, entries in self._by_pid.items():
            c_ids = [
                e.lock_id for e in entries if e.mode is LockMode.C
            ]
            if [e.lock_id for e in self._c_by_pid.get(pid, [])] != c_ids:
                raise ProtocolError(
                    f"C-lock index of P{pid} disagrees with the entries"
                )
            p_count = sum(
                1 for e in entries if e.mode is LockMode.P
            )
            if self._p_counts.get(pid, 0) != p_count:
                raise ProtocolError(
                    f"P-lock count of P{pid} disagrees with the entries"
                )
        self._check_blocker_index()
        self._check_masks()

    def _check_masks(self) -> None:
        plane = self._live_plane()
        index = plane.index
        expected_live = 0
        for type_name in self._by_type:
            expected_live |= 1 << index[type_name]
        if self._live_mask != expected_live:
            raise ProtocolError(
                f"live-type mask {self._live_mask:#x} disagrees with the "
                f"per-type lists ({expected_live:#x})"
            )
        expected_pid_masks = {
            pid: self._mask_of_entries(entries, index)
            for pid, entries in self._by_pid.items()
        }
        if self._pid_type_masks != expected_pid_masks:
            raise ProtocolError(
                "per-process type masks disagree with the per-pid lists"
            )
        for type_name in self._by_type:
            compiled_row = plane.conflicting_types(type_name)
            oracle_row = self._conflicts.conflicting_types(type_name)
            if compiled_row != oracle_row:
                raise ProtocolError(
                    f"compiled conflict row of {type_name!r} disagrees "
                    f"with the dict-based matrix: "
                    f"compiled={sorted(compiled_row)} "
                    f"oracle={sorted(oracle_row)}"
                )

    @staticmethod
    def _mask_of_entries(
        entries: Iterable[LockEntry], index: dict[str, int]
    ) -> int:
        mask = 0
        for entry in entries:
            mask |= 1 << index[entry.type_name]
        return mask

    def _check_blocker_index(self) -> None:
        from repro.core.reference import naive_blocked_by

        expected = naive_blocked_by(self)
        actual = {
            pid: set(blockers)
            for pid, blockers in self._blocked_by.items()
            if blockers
        }
        if actual != expected:
            raise ProtocolError(
                f"blocker index disagrees with naive recomputation: "
                f"index={actual} naive={expected}"
            )
        transpose: dict[int, set[int]] = {}
        for waiter, blockers in self._blocked_by.items():
            for blocker in blockers:
                transpose.setdefault(blocker, set()).add(waiter)
        blocks = {
            pid: set(waiters)
            for pid, waiters in self._blocks.items()
            if waiters
        }
        if blocks != transpose:
            raise ProtocolError(
                "blocks map is not the transpose of blocked_by"
            )
