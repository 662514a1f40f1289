"""Activity model of transactional processes (paper Section 2.1, Table 1).

An *activity type* describes a transaction program offered by one of the
underlying transactional subsystems, together with the metadata the process
manager needs to schedule it:

* an execution cost ``c(a)`` (finite, positive for regular activities),
* a failure probability ``p(a)`` in ``[0, 1)``,
* optionally the name of a *compensating* activity type ``a⁻¹`` that
  semantically undoes it, and
* a *retriable* flag: retriable activities are guaranteed to eventually
  succeed, hence their failure probability is zero by definition.

The paper's three classic termination classes fall out of two orthogonal
properties (compensatability and retriability):

=================  =================  ============
class              compensatable      retriable
=================  =================  ============
compensatable      yes                either
pivot              no                 no
retriable          either             yes
compensating a⁻¹   no                 yes
=================  =================  ============

A *pivot* is any regular activity without a compensating counterpart that is
not retriable; committing it is a point of no return for its process.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

from repro.errors import ActivityModelError

#: Cost assigned to the (non-existent) compensation of a pivot activity.
INFINITE_COST = math.inf


class TerminationClass(enum.Enum):
    """The termination classes of Table 1."""

    COMPENSATABLE = "compensatable"
    PIVOT = "pivot"
    RETRIABLE = "retriable"
    COMPENSATING = "compensating"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ActivityType:
    """A named activity type, i.e. one transaction program in ``A*``.

    Parameters
    ----------
    name:
        Unique name of the activity type within its registry.
    subsystem:
        Name of the transactional subsystem that executes this activity.
        Activities of different subsystems never conflict.
    cost:
        Execution cost ``c(a)``.  Must be finite; must be strictly positive
        for regular activities and non-negative for compensating ones.
    failure_probability:
        ``p(a)`` in ``[0, 1)``.  Zero is required for retriable and
        compensating activities.
    compensated_by:
        Name of the compensating activity type, or ``None`` if the activity
        is not compensatable (making it a pivot unless it is retriable).
    retriable:
        Whether the activity is guaranteed to eventually succeed.
    is_compensation:
        Whether this type *is* a compensating activity ``a⁻¹``.
    """

    name: str
    subsystem: str
    cost: float
    failure_probability: float = 0.0
    compensated_by: str | None = None
    retriable: bool = False
    is_compensation: bool = False

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        """Enforce the cost/failure-probability constraints of Table 1."""
        if not self.name:
            raise ActivityModelError("activity type needs a non-empty name")
        if not self.subsystem:
            raise ActivityModelError(
                f"activity {self.name!r} needs a subsystem name"
            )
        if math.isinf(self.cost) or math.isnan(self.cost):
            raise ActivityModelError(
                f"activity {self.name!r}: execution cost must be finite "
                f"(got {self.cost!r}); only the compensation of a pivot "
                "has infinite cost, and that activity does not exist"
            )
        if self.is_compensation:
            if self.cost < 0:
                raise ActivityModelError(
                    f"compensating activity {self.name!r}: cost must be "
                    f">= 0 (got {self.cost!r})"
                )
        elif self.cost <= 0:
            raise ActivityModelError(
                f"activity {self.name!r}: execution cost must be > 0 "
                f"(got {self.cost!r}); zero cost is reserved for "
                "compensating activities"
            )
        if not 0.0 <= self.failure_probability < 1.0:
            raise ActivityModelError(
                f"activity {self.name!r}: failure probability must lie in "
                f"[0, 1) (got {self.failure_probability!r})"
            )
        if self.retriable and self.failure_probability != 0.0:
            raise ActivityModelError(
                f"activity {self.name!r}: retriable activities have "
                f"failure probability 0 (got {self.failure_probability!r})"
            )
        if self.is_compensation:
            if not self.retriable:
                raise ActivityModelError(
                    f"compensating activity {self.name!r} must be retriable"
                )
            if self.compensated_by is not None:
                raise ActivityModelError(
                    f"compensating activity {self.name!r} must not itself "
                    "be compensatable (c((a⁻¹)⁻¹) = ∞)"
                )

    @property
    def compensatable(self) -> bool:
        """Whether a compensating activity exists for this type."""
        return self.compensated_by is not None

    @property
    def point_of_no_return(self) -> bool:
        """Whether committing this activity forecloses compensation."""
        return not self.compensatable and not self.is_compensation

    @property
    def compensation_cost(self) -> float:
        """Cost of compensating this activity; ``inf`` when impossible."""
        if self.compensated_by is None:
            return INFINITE_COST
        return self._compensation_cost_hint

    # The registry patches the real compensation cost in when it links the
    # two types; a bare ActivityType conservatively reports 0.
    _compensation_cost_hint: float = field(
        default=0.0, repr=False, compare=False
    )

    @property
    def termination_class(self) -> TerminationClass:
        """Classify this type according to Table 1.

        When a type is both compensatable and retriable the compensatable
        classification wins for scheduling purposes (the protocol cares
        about whether a C lock suffices).
        """
        if self.is_compensation:
            return TerminationClass.COMPENSATING
        if self.compensatable:
            return TerminationClass.COMPENSATABLE
        if self.retriable:
            return TerminationClass.RETRIABLE
        return TerminationClass.PIVOT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        marker = {
            TerminationClass.COMPENSATABLE: "c",
            TerminationClass.PIVOT: "p",
            TerminationClass.RETRIABLE: "r",
            TerminationClass.COMPENSATING: "-1",
        }[self.termination_class]
        return f"{self.name}^{marker}"


_activity_ids = itertools.count(1)


def ensure_uid_floor(floor: int) -> None:
    """Never auto-assign activity uids ≤ ``floor``.

    Crash recovery reconstructs activities with their original uids;
    advancing the counter keeps fresh invocations collision-free.
    """
    global _activity_ids
    _activity_ids = itertools.count(
        max(floor + 1, next(_activity_ids))
    )


@dataclass(frozen=True)
class Activity:
    """One invocation of an activity type by a process.

    Activities are the units that appear in process schedules.  Each carries
    a globally unique ``uid`` so that repeated invocations of the same type
    by the same process (e.g. after a resubmission) stay distinguishable.

    Parameters
    ----------
    activity_type:
        The invoked type.
    process_id:
        Identifier of the invoking process.
    seq:
        Position of this activity in the invoking process's own execution
        ledger (0-based).
    compensates:
        For compensating activities, the ``uid`` of the regular activity
        being undone; ``None`` for regular activities.
    uid:
        Globally unique invocation id (auto-assigned).
    """

    activity_type: ActivityType
    process_id: int
    seq: int
    compensates: int | None = None
    uid: int = field(default_factory=lambda: next(_activity_ids))

    def __post_init__(self) -> None:
        # ``name``, the invoked type's name, is a plain attribute (not a
        # field, not a property): every event an activity takes part in
        # reads it.
        object.__setattr__(self, "name", self.activity_type.name)

    @property
    def is_compensation(self) -> bool:
        """Whether this invocation is a compensating activity."""
        return self.compensates is not None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f"~{self.compensates}" if self.is_compensation else ""
        return f"{self.name}[P{self.process_id}#{self.seq}{suffix}]"
