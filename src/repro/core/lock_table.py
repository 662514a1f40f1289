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
frozenset iteration, no per-pair frozenset allocation.  The plane is
adopted by identity and resynced whenever the conflict relation
mutates or a type registers late (see :meth:`_live_plane`).

Activities of different subsystems never conflict (they cannot share
data — :class:`~repro.activities.commutativity.ConflictMatrix` enforces
it at declaration time), so the per-type lists partition cleanly by the
owning subsystem: every conflict edge, blocker-index edge, and
ordered-sharing decision is *local to one shard*.  The table
materializes that partition as a map of :class:`LockShard` objects —
one per subsystem, each owning its activity types and keeping live
counters (lock count, acquire/release totals) that feed the per-shard
observability gauges — and can run its structural audit **per shard**,
so a sampling auditor (``REPRO_AUDIT_EVERY``) round-robins one shard per
audit instead of rescanning every lock.  The shard map changes how the
table is *audited and observed*, never how a request is ordered or
granted: the global per-process lists, P-lock counts and the
commit-blocker index stay the source of truth.
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


class LockShard:
    """One subsystem's slice of the lock table (types + counters)."""

    __slots__ = (
        "name", "types", "lock_count", "acquires", "releases",
        "type_mask", "live_mask",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        #: Activity type names owned by this shard.
        self.types: set[str] = set()
        #: Live locks currently held on this shard's types.
        self.lock_count = 0
        self.acquires = 0
        self.releases = 0
        #: Bitmask of compiled type ids owned by this shard.
        self.type_mask = 0
        #: Bitmask of owned type ids with at least one live lock — the
        #: shard's slice of the table-wide live mask.
        self.live_mask = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LockShard({self.name!r}, types={len(self.types)}, "
            f"locks={self.lock_count})"
        )


class LockTable:
    """Per-activity-type ordered lock lists plus incremental indexes,
    partitioned into per-subsystem :class:`LockShard` slices."""

    def __init__(self, conflicts: ConflictMatrix) -> None:
        self._conflicts = conflicts
        self._conflicts_version = conflicts.version
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
        self._shards: dict[str, LockShard] = {}
        self._shard_by_type: dict[str, LockShard] = {}
        for activity_type in conflicts.registry:
            self._assign(activity_type.name, activity_type.subsystem)

    # ------------------------------------------------------------------
    # shard map
    # ------------------------------------------------------------------
    def _assign(self, type_name: str, subsystem: str) -> LockShard:
        shard = self._shards.get(subsystem)
        if shard is None:
            shard = LockShard(subsystem)
            self._shards[subsystem] = shard
        shard.types.add(type_name)
        shard.type_mask |= 1 << self._conflicts.compiled().index[type_name]
        self._shard_by_type[type_name] = shard
        return shard

    def shard_of(self, type_name: str) -> LockShard:
        """The shard owning ``type_name`` (registering late types)."""
        shard = self._shard_by_type.get(type_name)
        if shard is None:
            # Type registered after the table was built.
            activity_type = self._conflicts.registry.get(type_name)
            shard = self._assign(type_name, activity_type.subsystem)
        return shard

    @property
    def shards(self) -> dict[str, LockShard]:
        return self._shards

    def shard_names(self) -> tuple[str, ...]:
        return tuple(self._shards)

    def _live_plane(self):
        """The current compiled plane, adopting a recompile if needed.

        Type ids are stable across recompiles (the registry is
        append-only), but a recompile may follow bulk conflict edits —
        the live masks are rebuilt from the per-type lists rather than
        trusting stale bits.
        """
        plane = self._conflicts.compiled()
        if plane is not self._plane:
            self._plane = plane
            index = plane.index
            mask = 0
            for type_name in self._by_type:
                mask |= 1 << index[type_name]
            self._live_mask = mask
            pid_masks: dict[int, int] = {}
            for pid, entries in self._by_pid.items():
                pid_mask = 0
                for entry in entries:
                    pid_mask |= 1 << index[entry.type_name]
                pid_masks[pid] = pid_mask
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
        self._sync()
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
        plane = self._live_plane()
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
        shard = self.shard_of(type_name)
        shard.lock_count += 1
        shard.acquires += 1
        shard.live_mask = self._live_mask & shard.type_mask
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
        touched: set[str] = set()
        for entry in released:
            shard = self.shard_of(entry.type_name)
            shard.lock_count -= 1
            shard.releases += 1
            touched.add(shard.name)
        for name in touched:
            shard = self._shards[name]
            shard.live_mask = self._live_mask & shard.type_mask
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

    def _sync(self) -> None:
        """Rebuild the blocker index if the conflict relation changed.

        Declaring conflicts while locks are live is unusual (workloads
        build their matrix up front) but legal; the version check keeps
        the incremental index honest at the cost of one integer compare
        on the hot path.
        """
        if self._conflicts.version == self._conflicts_version:
            return
        self._conflicts_version = self._conflicts.version
        self._blocked_by = {}
        self._blocks = {}
        entries = [e for es in self._by_pid.values() for e in es]
        conflict = self._conflicts.conflict
        for mine in entries:
            for other in entries:
                if (
                    other.pid != mine.pid
                    and other.position < mine.position
                    and conflict(other.type_name, mine.type_name)
                ):
                    self._add_block_edge(other.pid, mine.pid)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def locks_of(self, pid: int) -> tuple[LockEntry, ...]:
        """Live locks of one process, in acquisition order."""
        return tuple(self._by_pid.get(pid, ()))

    def c_locks_of(self, pid: int) -> tuple[LockEntry, ...]:
        """Live C-mode locks of one process, in acquisition order."""
        return tuple(self._c_by_pid.get(pid, ()))

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
        self._sync()
        return set(self._blocked_by.get(process.pid, ()))

    def blockers_of(self, pid: int) -> frozenset[int]:
        """Pids holding an earlier conflicting lock than ``pid``."""
        self._sync()
        return frozenset(self._blocked_by.get(pid, ()))

    def waiters_on(self, pid: int) -> frozenset[int]:
        """Pids whose commit is held up by ``pid`` (the reverse map).

        The transpose of :meth:`blockers_of`: exactly the processes whose
        locks are on hold behind a lock of ``pid``.  Consumers that used
        to rebuild this relation by scanning every live lock (wait-graph
        construction, wake-up scheduling) read it here instead.
        """
        self._sync()
        return frozenset(self._blocks.get(pid, ()))

    def on_hold(self, process: Process) -> bool:
        """Whether any lock of ``process`` is currently on hold."""
        self._sync()
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

    def check_invariants(
        self,
        live_pids: Iterable[int],
        shards: Iterable[str] | None = None,
    ) -> None:
        """Audit structural invariants, fully or one shard at a time.

        With ``shards=None`` this is the full audit:

        * every held lock belongs to a live process;
        * per-type lists are position-sorted;
        * the primary indexes agree;
        * the mode indexes (C lists, P counts) match the entries;
        * the blocker index matches a naive recomputation;
        * the live-type and per-process bitmasks match a recomputation
          from the primary lists, and the compiled conflict rows of
          every live type agree with the dict-based matrix (the
          dev-time oracle for the compiled plane);
        * the shard map is consistent (every held type is owned by
          exactly one shard, per-shard lock counters sum to the global
          count) and every shard passes its local audit.

        With a list of shard names, only those shards are audited — the
        sampling auditor's round-robin mode.

        Syncs with the conflict matrix first: after a mid-run
        ``declare_conflict`` the blocker index is stale by design until
        the next query, and the audit must judge the synced state.
        """
        self._sync()
        live = set(live_pids)
        if shards is not None:
            for name in shards:
                shard = self._shards.get(name)
                if shard is None:
                    raise ProtocolError(f"unknown lock shard {name!r}")
                self._check_shard(shard, live)
            return
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
        self._check_shard_totals()
        for shard in self._shards.values():
            self._check_shard(shard, live)

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

    def _check_shard_totals(self) -> None:
        per_shard = sum(
            shard.lock_count for shard in self._shards.values()
        )
        if per_shard != self.lock_count:
            raise ProtocolError(
                f"shard lock counters sum to {per_shard}, table holds "
                f"{self.lock_count}"
            )
        for type_name in self._by_type:
            if type_name not in self._shard_by_type:
                raise ProtocolError(
                    f"held type {type_name!r} is not owned by any shard"
                )

    def _check_shard(self, shard: LockShard, live: set[int]) -> None:
        """Shard-local structural audit.

        Checks only the shard's types: position-sortedness, holder
        liveness, counter agreement, conflict locality (the conflict
        relation never leaves the shard), and a blocker-index
        recomputation restricted to the shard's entries — every edge it
        derives must be present in the global index (conflicts are
        shard-local, so the shard sees the complete evidence for each of
        its edges).
        """
        plane = self._live_plane()
        index = plane.index
        masks = plane.masks
        expected_type_mask = 0
        for type_name in shard.types:
            expected_type_mask |= 1 << index[type_name]
        if shard.type_mask != expected_type_mask:
            raise ProtocolError(
                f"shard {shard.name!r}: type mask {shard.type_mask:#x} "
                f"disagrees with owned types ({expected_type_mask:#x})"
            )
        count = 0
        entries = []
        for type_name in shard.types:
            # Conflict locality as one mask test: every conflict of an
            # owned type must stay inside the shard's type mask.
            if masks[index[type_name]] & ~shard.type_mask:
                foreign = [
                    plane.names[i]
                    for i in range(len(plane.names))
                    if masks[index[type_name]] >> i & 1
                    and not shard.type_mask >> i & 1
                ]
                raise ProtocolError(
                    f"shard {shard.name!r}: type {type_name!r} "
                    f"conflicts with foreign types {foreign!r}"
                )
            type_entries = self._by_type.get(type_name)
            if not type_entries:
                continue
            positions = [entry.position for entry in type_entries]
            if positions != sorted(positions):
                raise ProtocolError(
                    f"shard {shard.name!r}: lock list of {type_name!r} "
                    f"is not position-sorted"
                )
            for entry in type_entries:
                if entry.pid not in live:
                    raise ProtocolError(
                        f"shard {shard.name!r}: lock {entry} belongs to "
                        f"a terminated process"
                    )
            count += len(type_entries)
            entries.extend(type_entries)
        if count != shard.lock_count:
            raise ProtocolError(
                f"shard {shard.name!r}: counter says "
                f"{shard.lock_count} locks, lists hold {count}"
            )
        if shard.live_mask != self._live_mask & shard.type_mask:
            raise ProtocolError(
                f"shard {shard.name!r}: live mask {shard.live_mask:#x} "
                f"disagrees with the table-wide live mask slice "
                f"({self._live_mask & shard.type_mask:#x})"
            )
        conflict = self._conflicts.conflict
        for mine in entries:
            for other in entries:
                if (
                    other.pid != mine.pid
                    and other.position < mine.position
                    and conflict(other.type_name, mine.type_name)
                ):
                    if other.pid not in self._blocked_by.get(
                        mine.pid, ()
                    ):
                        raise ProtocolError(
                            f"shard {shard.name!r}: blocker edge "
                            f"P{other.pid} -> P{mine.pid} missing from "
                            f"the global index"
                        )
