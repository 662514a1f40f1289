"""Retry/backoff policies for retriable activities.

The paper treats retriable activities as "retried until they succeed";
the manager's seed behaviour is a fixed ``RETRY_DELAY`` with no budget.
This module adds production-style policies — fixed, exponential, and
seeded-jitter backoff — each with a **max-attempt budget**.  The budget
serves two purposes:

* it bounds the transient failures a fault plan may inject, preserving
  guaranteed termination (the chaos harness relies on this);
* it makes the retry tail part of the worst-case cost: each extra
  attempt of ``a`` adds ``c(a)`` to the process's ``Wcc`` (see
  :func:`repro.core.cost_based.retry_wcc_charge` /
  :func:`repro.core.cost_based.retry_budget_wcc`), so cost-based
  protection reacts to retry storms exactly as it reacts to long
  programs.

Policies are self-contained and picklable; jitter draws from an RNG
derived from the policy's own seed, never from the manager's stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.sim.rng import derive_rng


@dataclass(frozen=True)
class RetryPolicy:
    """Base policy: fixed delay, bounded attempts.

    ``max_attempts`` counts *total* attempts of one activity execution,
    first try included; once the budget is reached the attempt is
    treated as successful (retriables are guaranteed to eventually
    succeed — the budget merely bounds how long "eventually" may take
    under injection).
    """

    base_delay: float = 1.0
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise SchedulerError(
                f"retry base_delay must be >= 0 (got {self.base_delay!r})"
            )
        if self.max_attempts < 1:
            raise SchedulerError(
                f"retry max_attempts must be >= 1 "
                f"(got {self.max_attempts!r})"
            )

    def delay_for(self, retry_number: int) -> float:
        """Virtual-time delay before retry ``retry_number`` (1-based)."""
        return self.base_delay


@dataclass(frozen=True)
class FixedBackoff(RetryPolicy):
    """Constant delay between attempts (the seed behaviour, bounded)."""


@dataclass(frozen=True)
class ExponentialBackoff(RetryPolicy):
    """``base_delay * factor**(n-1)``, capped at ``max_delay``."""

    factor: float = 2.0
    max_delay: float = 32.0

    def delay_for(self, retry_number: int) -> float:
        delay = self.base_delay * self.factor ** (retry_number - 1)
        return min(delay, self.max_delay)


@dataclass(frozen=True)
class JitteredBackoff(ExponentialBackoff):
    """Exponential backoff plus seeded uniform jitter.

    The jitter for retry ``n`` is drawn from an RNG derived from
    ``(seed, n)``, so paired runs with equal seeds back off identically
    while distinct retries stay decorrelated.
    """

    jitter: float = 0.5
    seed: int = 0

    def delay_for(self, retry_number: int) -> float:
        delay = super().delay_for(retry_number)
        if self.jitter <= 0:
            return delay
        rng = derive_rng(self.seed, f"backoff:{retry_number}")
        return delay + rng.uniform(0.0, self.jitter)


def make_policy(spec, seed: int = 0) -> RetryPolicy:
    """Build a policy from a :class:`repro.faults.plan.RetrySpec`."""
    if spec.kind == "fixed":
        return FixedBackoff(
            base_delay=spec.base_delay, max_attempts=spec.max_attempts
        )
    if spec.kind == "exponential":
        return ExponentialBackoff(
            base_delay=spec.base_delay,
            max_attempts=spec.max_attempts,
            factor=spec.factor,
            max_delay=spec.max_delay,
        )
    if spec.kind == "jittered":
        return JitteredBackoff(
            base_delay=spec.base_delay,
            max_attempts=spec.max_attempts,
            factor=spec.factor,
            max_delay=spec.max_delay,
            jitter=spec.jitter,
            seed=seed,
        )
    raise SchedulerError(f"unknown retry policy kind {spec.kind!r}")
