"""Process programs ``PP = (A, <, ⊲)`` as trees (paper Section 2.2).

A process program is represented as a tree of :class:`ProgramNode` objects:

* each node carries one or more activity type names; a multi-activity node
  groups activities that may execute concurrently (they are ``<``-ordered
  with respect to preceding and succeeding nodes but unordered among
  themselves);
* a node's ``children`` tuple lists its ⊲-ordered continuations.  Ordinary
  nodes have at most one child (plain precedence).  A *point-of-no-return*
  node (an activity without compensation) may have several children: these
  are the alternative subprocess programs tried in preference order after
  the pivot commits, the last of which must be an *assured termination
  tree* consisting solely of retriable activities.

Programs are immutable; use :class:`~repro.process.builder.ProgramBuilder`
to construct them and
:func:`~repro.process.validation.validate_guaranteed_termination` (called by
:meth:`ProcessProgram.validate`) to check well-formedness.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.activities.registry import ActivityRegistry
from repro.errors import ProcessProgramError


@dataclass(frozen=True)
class ProgramNode:
    """One node of a process program tree.

    Parameters
    ----------
    activities:
        Activity type names executed (concurrently) at this node.
    children:
        ⊲-ordered continuations; alternatives when the node is a point of
        no return, otherwise a single plain successor (or none).
    node_id:
        Identifier unique within the program; assigned by the builder.
    """

    activities: tuple[str, ...]
    children: tuple["ProgramNode", ...] = ()
    node_id: int = 0

    def __post_init__(self) -> None:
        if not self.activities:
            raise ProcessProgramError("a program node needs >= 1 activity")

    @property
    def is_parallel(self) -> bool:
        """Whether this is a multi-activity (parallel) node."""
        return len(self.activities) > 1

    def iter_subtree(self) -> Iterator["ProgramNode"]:
        """Yield this node and all its descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = "|".join(self.activities)
        return f"<{label}>" if self.is_parallel else label


@dataclass(frozen=True)
class RequestMasks:
    """A program's static lock-request footprint, as bitmasks over the
    dense type ids of one compiled conflict plane
    (:meth:`~repro.activities.commutativity.ConflictMatrix.compiled`).

    What the manager's restart gate compares: an older process *may
    still request* the types below its current node
    (:meth:`~repro.process.instance.Process.may_still_request`), and a
    cascade victim's successor first asks for its root node's.
    """

    #: ``node_id`` -> one bit per activity type in that node's subtree.
    subtree: dict[int, int]
    #: Every type of the program (the root's subtree).
    whole: int
    #: The types that conflict with an activity of the root node.
    root_conflicts: int


@dataclass(frozen=True)
class ProcessProgram:
    """An immutable, named process program.

    Parameters
    ----------
    name:
        Program name (used in traces and reports).
    root:
        Root node of the program tree.
    registry:
        The activity registry the program's activity names refer to.
    wcc_threshold:
        Cost threshold ``Wcc*(PP)`` for cost-based scheduling (Section 4).
        ``math.inf`` disables the cost-based extension for this program;
        ``0`` makes every activity a pseudo pivot.
    """

    name: str
    root: ProgramNode
    registry: ActivityRegistry = field(repr=False)
    wcc_threshold: float = math.inf

    def __post_init__(self) -> None:
        if self.wcc_threshold < 0:
            raise ProcessProgramError(
                f"program {self.name!r}: Wcc* must be >= 0 "
                f"(got {self.wcc_threshold!r})"
            )

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[ProgramNode]:
        """All nodes of the program, preorder."""
        return self.root.iter_subtree()

    def activity_names(self) -> set[str]:
        """All activity type names referenced by the program."""
        return {
            name for node in self.iter_nodes() for name in node.activities
        }

    def is_point_of_no_return(self, node: ProgramNode) -> bool:
        """Whether ``node`` is a point-of-no-return (pivot-like) node."""
        return len(node.activities) == 1 and self.registry.get(
            node.activities[0]
        ).point_of_no_return

    def request_masks(self, plane) -> RequestMasks:
        """The program's :class:`RequestMasks` over ``plane``, computed
        once per plane (one per conflict relation: CON is fixed once
        compiled)."""
        cached = self.__dict__.get("_request_masks")
        if cached is not None and cached[0] is plane:
            return cached[1]
        subtree: dict[int, int] = {}

        def fold(node: ProgramNode) -> int:
            mask = 0
            for name in node.activities:
                mask |= 1 << plane.id_of(name)
            for child in node.children:
                mask |= fold(child)
            subtree[node.node_id] = mask
            return mask

        whole = fold(self.root)
        root_conflicts = 0
        for name in self.root.activities:
            root_conflicts |= plane.masks[plane.id_of(name)]
        masks = RequestMasks(subtree, whole, root_conflicts)
        # Frozen dataclass: the cache is not a field (eq/hash/repr
        # ignore it), so it is written past ``__setattr__``.
        self.__dict__["_request_masks"] = (plane, masks)
        return masks

    def validate(self) -> None:
        """Check guaranteed termination; see :mod:`repro.process.validation`."""
        from repro.process.validation import (
            validate_guaranteed_termination,
        )

        validate_guaranteed_termination(self)

    def describe(self, indent: str = "  ") -> str:
        """Render the program tree as an indented multi-line string."""
        lines: list[str] = [f"program {self.name!r} (Wcc*="
                            f"{self.wcc_threshold})"]

        def render(node: ProgramNode, depth: int, tag: str) -> None:
            classes = "/".join(
                str(self.registry.get(n).termination_class)
                for n in node.activities
            )
            lines.append(f"{indent * depth}{tag}{node} [{classes}]")
            for index, child in enumerate(node.children):
                child_tag = (
                    f"alt{index}: " if len(node.children) > 1 else ""
                )
                render(child, depth + 1, child_tag)

        render(self.root, 1, "")
        return "\n".join(lines)
