"""Decision objects returned by the process-locking protocol.

Every lock request (and every commit attempt) resolves to exactly one of:

* :class:`Grant` — the request succeeded; locks were acquired (or the
  commit may proceed).
* :class:`Defer` — the request must wait until the named processes have
  terminated (or committed); the process manager parks the request and
  retries it on each relevant termination.
* :class:`AbortVictims` — timestamp order requires the named *running*
  processes to be aborted (cascading abort); the manager aborts them,
  resubmits them with their original timestamps, and then retries the
  request.

``Defer.reason`` carries a machine-readable tag used by metrics and tests
(e.g. ``"older-c-holders"``, ``"completing-token"``, ``"wait-aborting"``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.locks import LockEntry


#: Decision ``reason`` tag -> the paper rule (or mechanism) that fired.
#: Consumed by the observability layer (:mod:`repro.obs`) to annotate
#: defer/self-abort events and by ``repro explain``'s causal accounts.
#: Unknown tags fall back to the tag itself via :func:`rule_for_reason`.
RULE_BY_REASON: dict[str, str] = {
    # process locking (core/protocol.py)
    "younger-completing-or-p-holder": "Comp-Rule",
    "piv-rule-defer": "Piv-Rule / Comp→Piv-Rule",
    "other-p-holder": "Piv-Rule (literal P-lock deferment)",
    "completing-token": "one-completing-process strategy",
    "completing-defers-on-pseudo": (
        "Comp-Rule (first-class requester vs pseudo-pivot protection)"
    ),
    "compensation-blocked-by-completing": "C⁻¹-Rule",
    "wait-aborting": "wait for abort-process execution (C⁻¹-Rule)",
    "commit-on-hold": "Commit-Rule (lock on hold)",
    # manager (scheduler/manager.py)
    "awaiting-cascade": "cascading abort in progress",
    # baselines
    "s2pl-wait": "S2PL exclusive-lock wait",
    "s2pl-completing-wait": "S2PL completing-process wait",
    "s2pl-compensation-wait": "S2PL compensation wait",
    "s2pl-die": "S2PL wait-die",
    "wait-die": "S2PL wait-die",
    "serial-token": "serial execution token",
}


def rule_for_reason(reason: str) -> str:
    """Human-readable rule name for a decision reason tag."""
    return RULE_BY_REASON.get(reason, reason)


@dataclass(frozen=True)
class Grant:
    """Request granted; ``locks`` lists the entries acquired (may be
    empty for commit grants)."""

    locks: tuple[LockEntry, ...] = ()


@dataclass(frozen=True)
class Defer:
    """Request deferred until the processes in ``wait_for`` terminate."""

    wait_for: frozenset[int]
    reason: str

    def __post_init__(self) -> None:
        if not self.wait_for:
            raise ValueError("Defer needs a non-empty wait set")


@dataclass(frozen=True)
class AbortVictims:
    """The named running processes must be cascade-aborted first."""

    victims: frozenset[int]

    def __post_init__(self) -> None:
        if not self.victims:
            raise ValueError("AbortVictims needs a non-empty victim set")


@dataclass(frozen=True)
class SelfAbort:
    """The *requesting* process must abort itself (and be resubmitted).

    Process locking never answers a request this way — its timestamp
    discipline always sacrifices younger lock *holders* — but baseline
    protocols do: wait-die S2PL kills a younger requester, and pure OSL
    aborts a process whose late commit-time validation fails.
    """

    reason: str


Decision = Grant | Defer | AbortVictims | SelfAbort


@dataclass
class ProtocolStats:
    """The protocol's decision counters that run summaries read.

    Grants per request class, defers per rule and conversions are the
    metrics registry's ``repro_lock_*`` families; defers per reason are
    the series bank's ``defer_reasons`` histogram.
    """

    defers: int = 0
    #: Cascade decisions that began at least one abort, and the aborts
    #: they began — counted by the process manager where the abort
    #: starts: re-asked after a victim is gone, a rule names the
    #: remaining victims again.
    cascades_requested: int = 0
    cascade_victims: int = 0
