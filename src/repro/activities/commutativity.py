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

The relation is given before any process runs, so it is compiled once
(:meth:`ConflictMatrix.compiled`) into one bitset plane and fixed from
then on: a later declaration or closure raises, and so does the first
lock request on a type registered after the compile.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.activities.registry import ActivityRegistry
from repro.errors import CommutativityError


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending.

    For row decoding and the acquire check; the lock table's hottest
    scan inlines the same ``mask & -mask`` peel.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_ends(pair: frozenset[str]) -> tuple[str, str]:
    """The two type names of a declared pair (a self-pair is a 1-set)."""
    return (*pair, *pair)[:2]


class CompiledConflicts:
    """The conflict relation compiled to dense-id bitsets.

    Every activity type registered when the relation is compiled gets a
    dense integer id (registry definition order), and the relation
    becomes one big-int bitmask per type: bit ``j`` of ``masks[i]`` is
    set iff types ``i`` and ``j`` conflict.  Conflict tests are then a
    shift + AND, and "which held types conflict with ``t``" is
    ``masks[t] & live_mask`` — the form the lock table's hot scans
    consume.

    There is one plane per :class:`ConflictMatrix`, compiled on the
    first :meth:`ConflictMatrix.compiled` call; from then on the
    relation is fixed (``CON`` is given before any process runs,
    Section 3.2.1), so consumers hold the plane and never re-read it.
    """

    __slots__ = ("index", "names", "masks")

    def __init__(
        self, index: dict[str, int], names: list[str], masks: list[int]
    ) -> None:
        #: type name -> dense id (registry definition order).
        self.index = index
        #: dense id -> type name (the inverse of :attr:`index`).
        self.names = names
        #: dense id -> bitmask of conflicting dense ids.
        self.masks = masks

    def id_of(self, name: str) -> int:
        """Dense id of ``name`` (validating, for scan setup)."""
        try:
            return self.index[name]
        except KeyError:
            raise CommutativityError(
                f"activity type {name!r} is not in the compiled conflict "
                "relation (every type is registered before CON is "
                "compiled)"
            ) from None


class ConflictMatrix:
    """Symmetric boolean conflict relation over activity type names.

    The relation is built by :meth:`declare_conflict` and
    :meth:`close_perfect`, then compiled once (:meth:`compiled`) into
    the bitset plane the lock table, the execution gate and the restart
    gate read.  After that it is fixed: a further declaration or
    closure raises :class:`~repro.errors.CommutativityError`, and a
    type registered later is unknown to the plane, so its first lock
    request raises too.  :meth:`conflict` answers from the declared
    pairs (the theory checks read it); :meth:`conflicting_types` decodes
    a plane row.
    """

    def __init__(self, registry: ActivityRegistry) -> None:
        self._registry = registry
        self._conflicts: set[frozenset[str]] = set()
        self._compiled: CompiledConflicts | None = None

    @property
    def registry(self) -> ActivityRegistry:
        """The activity registry this relation is defined over."""
        return self._registry

    def compiled(self) -> CompiledConflicts:
        """The compiled bitset plane; the first call fixes the relation."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        return compiled

    def _compile(self) -> CompiledConflicts:
        names = [activity_type.name for activity_type in self._registry]
        index = {name: i for i, name in enumerate(names)}
        masks = [0] * len(names)
        for pair in self._conflicts:
            first, second = pair_ends(pair)
            a = index[first]
            b = index[second]
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return CompiledConflicts(index=index, names=names, masks=masks)

    def _refuse_if_compiled(self, change: str) -> None:
        if self._compiled is not None:
            raise CommutativityError(
                f"{change}: the conflict relation is already compiled, "
                "and CON is fixed from then on"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def declare_conflict(self, first: str, second: str) -> None:
        """Declare that activity types ``first`` and ``second`` conflict.

        The relation is stored symmetrically.  Declaring a conflict between
        activities of different subsystems is rejected because such
        activities cannot share resources, and so is any declaration
        once the relation is compiled.
        """
        type_a = self._registry.get(first)
        type_b = self._registry.get(second)
        if type_a.subsystem != type_b.subsystem:
            raise CommutativityError(
                f"activities {first!r} and {second!r} run in different "
                "subsystems and therefore always commute"
            )
        self._refuse_if_compiled(f"declare_conflict({first!r}, {second!r})")
        self._conflicts.add(frozenset((first, second)))

    def close_perfect(self) -> None:
        """Extend the relation so that commutativity becomes perfect.

        For every conflicting pair ``(a, b)`` this adds the conflicts
        ``(a⁻¹, b)``, ``(a, b⁻¹)`` and ``(a⁻¹, b⁻¹)`` whenever the
        compensating activities exist, and conversely treats a conflict on
        a compensation as a conflict on its regular activity.  Refused
        once the relation is compiled.
        """
        self._refuse_if_compiled("close_perfect()")
        changed = True
        while changed:
            changed = False
            for pair in list(self._conflicts):
                for variant in self._perfect_variants(*pair_ends(pair)):
                    if variant not in self._conflicts:
                        self._conflicts.add(variant)
                        changed = True

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
        """All activity type names that conflict with ``name``: its
        plane row, decoded (compiles the relation if it is not yet)."""
        plane = self.compiled()
        names = plane.names
        return frozenset(
            names[i] for i in iter_bits(plane.masks[plane.id_of(name)])
        )

    def is_perfect(self) -> bool:
        """Check the perfect-commutativity property of Section 2.3."""
        for pair in self._conflicts:
            for variant in self._perfect_variants(*pair_ends(pair)):
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
