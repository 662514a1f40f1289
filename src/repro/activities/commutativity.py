"""Commutativity / conflict relation between activity types.

The process manager treats activities as black boxes but knows, for each
pair of activity types, whether they *commute* (swapping their order leaves
all return values unchanged) or *conflict*.  The paper encodes this as an
``n × n`` boolean matrix ``CON`` over activity types (Section 3.2.1).

Two structural facts are enforced here:

* activities executed in different subsystems never conflict (they cannot
  share data), and
* commutativity is *perfect* (Section 2.3): for every pair ``(a, b)``,
  either all combinations of ``{a, a⁻¹} × {b, b⁻¹}`` commute or all of them
  conflict.  :meth:`ConflictMatrix.close_perfect` propagates conflicts to
  compensating activities accordingly, and :meth:`ConflictMatrix.is_perfect`
  verifies the property.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.activities.registry import ActivityRegistry
from repro.errors import CommutativityError


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending.

    Convenience for cold paths and tests; the lock table's hot loops
    inline the same ``mask & -mask`` peel to avoid generator overhead.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CompiledConflicts:
    """One :class:`ConflictMatrix` state compiled to dense-id bitsets.

    Every registered activity type gets a dense integer id (registry
    definition order — stable across recompiles because the registry is
    append-only), and the conflict relation becomes one big-int bitmask
    per type: bit ``j`` of ``masks[i]`` is set iff types ``i`` and ``j``
    conflict.  Conflict tests are then a shift + AND, and "which held
    types conflict with ``t``" is ``masks[t] & live_mask`` — the form
    the lock table's hot scans consume.

    Instances are immutable snapshots: :meth:`ConflictMatrix.compiled`
    hands out a cached plane and replaces it wholesale whenever the
    relation mutates (``declare_conflict`` / ``close_perfect`` bump the
    matrix version and drop the cache) or a type is registered late
    (detected by the registry-length check).  Consumers therefore cache
    the plane by identity and resync when ``compiled()`` returns a new
    object.
    """

    __slots__ = ("version", "index", "names", "masks", "mask_of")

    def __init__(
        self,
        version: int,
        index: dict[str, int],
        names: list[str],
        masks: list[int],
    ) -> None:
        #: The matrix version this plane was compiled from.
        self.version = version
        #: type name -> dense id (registry definition order).
        self.index = index
        #: dense id -> type name (the inverse of :attr:`index`).
        self.names = names
        #: dense id -> bitmask of conflicting dense ids.
        self.masks = masks
        #: type name -> conflict bitmask (fused ``masks[index[name]]``).
        self.mask_of = {
            name: masks[i] for i, name in enumerate(names)
        }

    def id_of(self, name: str) -> int:
        """Dense id of ``name`` (validating, for scan setup)."""
        try:
            return self.index[name]
        except KeyError:
            raise CommutativityError(
                f"conflict query over unknown activity type {name!r}"
            ) from None

    def conflict(self, first: str, second: str) -> bool:
        """``CON(first, second)`` as one shift + AND."""
        return bool(
            self.masks[self.id_of(first)] >> self.id_of(second) & 1
        )

    def commute(self, first: str, second: str) -> bool:
        return not self.conflict(first, second)

    def conflicting_types(self, name: str) -> frozenset[str]:
        """Decode one row back to names (oracle/test convenience)."""
        names = self.names
        return frozenset(
            names[i] for i in iter_bits(self.masks[self.id_of(name)])
        )


class ConflictMatrix:
    """Symmetric boolean conflict relation over activity type names.

    Hot-path consumers (the lock table, the execution gate) read the
    relation through the **compiled plane** (:meth:`compiled`): dense
    integer type ids and per-type big-int conflict bitmasks, rebuilt
    lazily after every mutation (:meth:`declare_conflict`,
    :meth:`close_perfect`) and on late type registration.  The
    dict/frozenset representation here — :meth:`conflict`,
    :meth:`conflicting_types` and the adjacency index behind it — stays
    as the oracle of the compiled plane: the theory checks, the lock
    table's per-step checks and the test-side reference
    implementations read it.
    :attr:`version` increments on every mutation so dependent
    structures (the lock table's blocker index and adopted plane) can
    detect staleness cheaply.
    """

    def __init__(self, registry: ActivityRegistry) -> None:
        self._registry = registry
        self._conflicts: set[frozenset[str]] = set()
        self._adjacency: dict[str, frozenset[str]] | None = None
        self._compiled: CompiledConflicts | None = None
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the relation changes."""
        return self._version

    @property
    def registry(self) -> ActivityRegistry:
        """The activity registry this relation is defined over."""
        return self._registry

    def _invalidate(self) -> None:
        self._adjacency = None
        self._compiled = None
        self._version += 1

    def compiled(self) -> CompiledConflicts:
        """The compiled bitset plane for the current relation state.

        Cached: mutation (:meth:`declare_conflict`,
        :meth:`close_perfect`) drops the cache through
        :meth:`_invalidate`, and late type registration is caught by
        comparing the plane's type count against the registry — so the
        fast path is one ``None`` check plus one length compare.
        """
        compiled = self._compiled
        if compiled is not None and len(compiled.names) == len(
            self._registry
        ):
            return compiled
        return self._build_compiled()

    def _build_compiled(self) -> CompiledConflicts:
        names = [activity_type.name for activity_type in self._registry]
        index = {name: i for i, name in enumerate(names)}
        masks = [0] * len(names)
        for pair in self._conflicts:
            pair_names = tuple(pair)
            first, second = (
                pair_names
                if len(pair_names) == 2
                else (pair_names[0], pair_names[0])
            )
            a = index[first]
            b = index[second]
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        compiled = CompiledConflicts(
            version=self._version,
            index=index,
            names=names,
            masks=masks,
        )
        self._compiled = compiled
        return compiled

    def _build_adjacency(self) -> dict[str, frozenset[str]]:
        """Materialize the adjacency index over the full registry.

        Every registered type gets an entry (possibly empty), so the
        hot-path lookup doubles as name validation: a miss means the
        queried name is unknown.
        """
        neighbours: dict[str, set[str]] = {
            activity_type.name: set() for activity_type in self._registry
        }
        for pair in self._conflicts:
            names = tuple(pair)
            first, second = (
                names if len(names) == 2 else (names[0], names[0])
            )
            neighbours[first].add(second)
            neighbours[second].add(first)
        adjacency = {
            name: frozenset(others)
            for name, others in neighbours.items()
        }
        self._adjacency = adjacency
        return adjacency

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def declare_conflict(self, first: str, second: str) -> None:
        """Declare that activity types ``first`` and ``second`` conflict.

        The relation is stored symmetrically.  Declaring a conflict between
        activities of different subsystems is rejected because such
        activities cannot share resources.
        """
        type_a = self._registry.get(first)
        type_b = self._registry.get(second)
        if type_a.subsystem != type_b.subsystem:
            raise CommutativityError(
                f"activities {first!r} and {second!r} run in different "
                "subsystems and therefore always commute"
            )
        self._conflicts.add(frozenset((first, second)))
        self._invalidate()

    def close_perfect(self) -> None:
        """Extend the relation so that commutativity becomes perfect.

        For every conflicting pair ``(a, b)`` this adds the conflicts
        ``(a⁻¹, b)``, ``(a, b⁻¹)`` and ``(a⁻¹, b⁻¹)`` whenever the
        compensating activities exist, and conversely treats a conflict on
        a compensation as a conflict on its regular activity.
        """
        changed = True
        added = False
        while changed:
            changed = False
            for pair in list(self._conflicts):
                names = tuple(pair) if len(pair) == 2 else (
                    next(iter(pair)),
                    next(iter(pair)),
                )
                for variant in self._perfect_variants(*names):
                    if variant not in self._conflicts:
                        self._conflicts.add(variant)
                        changed = True
                        added = True
        if added:
            self._invalidate()

    def _perfect_variants(
        self, first: str, second: str
    ) -> list[frozenset[str]]:
        variants = []
        for name_a in self._family(first):
            for name_b in self._family(second):
                variants.append(frozenset((name_a, name_b)))
        return variants

    def _family(self, name: str) -> list[str]:
        """``name`` together with its compensation / regular partner."""
        activity = self._registry.get(name)
        family = [name]
        if activity.compensated_by is not None:
            family.append(activity.compensated_by)
        if activity.is_compensation:
            family.extend(
                t.name
                for t in self._registry
                if t.compensated_by == name
            )
        return family

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def conflict(self, first: str, second: str) -> bool:
        """``CON(first, second)``: whether the two types conflict."""
        if first not in self._registry or second not in self._registry:
            raise CommutativityError(
                f"conflict query over unknown activity types "
                f"({first!r}, {second!r})"
            )
        return frozenset((first, second)) in self._conflicts

    def commute(self, first: str, second: str) -> bool:
        """Whether the two types commute (the complement of conflict)."""
        return not self.conflict(first, second)

    def conflicting_types(self, name: str) -> frozenset[str]:
        """All activity type names that conflict with ``name``.

        Served from the adjacency index in O(1); name validation happens
        once at index-build time (a lookup miss on a fresh index means
        the name is unknown).
        """
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._build_adjacency()
        try:
            return adjacency[name]
        except KeyError:
            if name in self._registry:
                # Type registered after the index was built: rebuild.
                return self._build_adjacency()[name]
            raise CommutativityError(
                f"conflicting-types query over unknown activity type "
                f"{name!r}"
            ) from None

    def is_perfect(self) -> bool:
        """Check the perfect-commutativity property of Section 2.3."""
        for pair in self._conflicts:
            names = tuple(pair)
            first, second = (
                names if len(names) == 2 else (names[0], names[0])
            )
            for variant in self._perfect_variants(first, second):
                if variant not in self._conflicts:
                    return False
        return True

    def pairs(self) -> set[frozenset[str]]:
        """The raw set of conflicting pairs (copies)."""
        return set(self._conflicts)

    def density(self) -> float:
        """Fraction of regular-type pairs (incl. self-pairs) in conflict."""
        regular = [t.name for t in self._registry.regular_types()]
        total = len(regular) * (len(regular) + 1) // 2
        if total == 0:
            return 0.0
        hits = sum(
            1
            for i, first in enumerate(regular)
            for second in regular[i:]
            if self.conflict(first, second)
        )
        return hits / total


def derive_from_read_write_sets(
    registry: ActivityRegistry,
    access: dict[str, tuple[frozenset[str], frozenset[str]]],
) -> ConflictMatrix:
    """Derive a conflict matrix from data-level read/write sets.

    Parameters
    ----------
    registry:
        The activity registry the matrix should cover.
    access:
        Maps each activity type name to its ``(read_set, write_set)`` of
        record keys, qualified per subsystem (keys of different subsystems
        are distinct by construction of the callers).

    Returns
    -------
    ConflictMatrix
        Two activities conflict iff they run in the same subsystem and one
        writes a record the other reads or writes.  The matrix is closed
        under perfect commutativity afterwards (a compensation is assumed
        to touch the records of its regular activity).
    """
    matrix = ConflictMatrix(registry)
    names = list(access)
    for i, first in enumerate(names):
        reads_a, writes_a = access[first]
        type_a = registry.get(first)
        for second in names[i:]:
            type_b = registry.get(second)
            if type_a.subsystem != type_b.subsystem:
                continue
            reads_b, writes_b = access[second]
            collides = bool(
                writes_a & (reads_b | writes_b)
                or writes_b & (reads_a | writes_a)
            )
            if collides:
                matrix.declare_conflict(first, second)
    matrix.close_perfect()
    return matrix
