"""Cost-based process scheduling (paper Section 4).

The runtime decision logic lives in
:meth:`repro.core.protocol.ProcessLockManager.classify_regular` (the
algorithm of Figure 1).  This module provides the cost model *functions*
(Equations 1–3) plus an instrumented re-implementation of Figure 1 that
produces a step-by-step trace — used by the exhibit generator and the
Figure-1 benchmark, and cross-checked against the protocol's behaviour in
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.activities.registry import ActivityRegistry
from repro.core.locks import LockMode


def wcc_after(
    registry: ActivityRegistry, wcc: float, next_activity: str
) -> float:
    """``Wcc(P, S')`` of Equation 2: cost after adding one activity."""
    activity = registry.get(next_activity)
    return wcc + activity.cost + registry.compensation_cost(next_activity)


def retry_wcc_charge(
    registry: ActivityRegistry, activity_name: str
) -> float:
    """``Wcc`` increment of one *extra* attempt of a retriable activity.

    Retriable activities have no compensation to pay for (a failed
    attempt has no effect), so each additional attempt contributes its
    execution cost ``c(a)`` alone.  The manager charges this per retry
    when a bounded retry policy is installed, making retry storms
    visible to the cost-based scheduler of Section 4.
    """
    return registry.get(activity_name).cost


def retry_budget_wcc(
    registry: ActivityRegistry, activity_name: str, max_attempts: int
) -> float:
    """Worst-case retry cost of ``a`` under an attempt budget.

    With at most ``max_attempts`` total attempts, the worst case pays
    ``(max_attempts - 1) * c(a)`` on top of the successful execution —
    the bound that keeps ``Wcc`` finite (and termination guaranteed)
    under transient-fault injection.
    """
    if max_attempts < 1:
        raise ValueError(
            f"max_attempts must be >= 1 (got {max_attempts!r})"
        )
    return (max_attempts - 1) * retry_wcc_charge(registry, activity_name)


def is_pseudo_pivot(
    registry: ActivityRegistry,
    wcc_before: float,
    activity_name: str,
    threshold: float,
) -> bool:
    """Equation 3: compensatable, but crossing the threshold right now.

    Pseudo pivots are distinguished from real pivots by *finite*
    worst-case cost.
    """
    activity = registry.get(activity_name)
    if not activity.compensatable:
        return False
    after = wcc_after(registry, wcc_before, activity_name)
    return (
        wcc_before < threshold <= after
        and not math.isinf(after)
    )


class WccMemo:
    """Per-activity-type memo of the Figure-1 charge inputs.

    :meth:`ProcessLockManager.classify_regular` needs, per decision, the
    type's ``c(a) + c(a⁻¹)`` charge (Equation 2) and its
    point-of-no-return flag — both pure functions of the registry entry,
    which is immutable once registered.  The memo computes each type's
    pair once and serves every later classification from a dict hit,
    skipping the two registry lookups and the pivot/infinite-cost
    branch of :meth:`ActivityRegistry.compensation_cost` per call.

    The registry is append-only and its entries immutable, so memoized
    pairs never go stale: a name unknown at memo creation simply misses
    into the registry (which raises on truly unknown types, preserving
    the un-memoized error behaviour).
    """

    __slots__ = ("_registry", "_entries")

    def __init__(self, registry: ActivityRegistry) -> None:
        self._registry = registry
        #: type name -> (wcc charge, is real point of no return)
        self._entries: dict[str, tuple[float, bool]] = {}

    def lookup(self, type_name: str) -> tuple[float, bool]:
        """``(c(a) + c(a⁻¹), point_of_no_return)`` for one type."""
        entry = self._entries.get(type_name)
        if entry is None:
            registry = self._registry
            activity_type = registry.get(type_name)
            entry = (
                activity_type.cost
                + registry.compensation_cost(type_name),
                activity_type.point_of_no_return,
            )
            self._entries[type_name] = entry
        return entry


@dataclass(frozen=True)
class Figure1Step:
    """One row of the Figure-1 execution trace."""

    activity: str
    wcc_before: float
    wcc_after: float
    threshold: float
    treatment: LockMode
    pseudo_pivot: bool
    real_pivot: bool

    def describe(self) -> str:
        kind = (
            "pivot"
            if self.real_pivot
            else "pseudo-pivot" if self.pseudo_pivot else "compensatable"
        )
        return (
            f"{self.activity:<20} Wcc {self.wcc_before:>8g} -> "
            f"{self.wcc_after:>8g}  (Wcc* = {self.threshold:g})  "
            f"lock={self.treatment.value}  [{kind}]"
        )


def figure1_trace(
    registry: ActivityRegistry,
    activity_names: list[str],
    threshold: float,
) -> list[Figure1Step]:
    """Run the Figure-1 algorithm symbolically over an activity sequence.

    Mirrors ``execute_activity`` from the paper: for each regular activity
    the worst-case cost is updated first (Equation 2) and the treatment is
    chosen by comparing against ``Wcc*``; real pivots always exceed the
    threshold (Lemma 1).
    """
    steps: list[Figure1Step] = []
    wcc = 0.0
    for name in activity_names:
        activity = registry.get(name)
        before = wcc
        wcc = wcc_after(registry, wcc, name)
        if activity.point_of_no_return:
            treatment = LockMode.P
            pseudo = False
        elif wcc >= threshold:
            treatment = LockMode.P
            pseudo = True
        else:
            treatment = LockMode.C
            pseudo = False
        steps.append(
            Figure1Step(
                activity=name,
                wcc_before=before,
                wcc_after=wcc,
                threshold=threshold,
                treatment=treatment,
                pseudo_pivot=pseudo,
                real_pivot=activity.point_of_no_return,
            )
        )
    return steps


def lemma1_holds(
    registry: ActivityRegistry, pivot_name: str, threshold: float
) -> bool:
    """Lemma 1: scheduling a pivot always exceeds any finite threshold."""
    activity = registry.get(pivot_name)
    if not activity.point_of_no_return:
        raise ValueError(f"{pivot_name!r} is not a point of no return")
    return wcc_after(registry, 0.0, pivot_name) >= threshold
