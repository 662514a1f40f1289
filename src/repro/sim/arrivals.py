"""Arrival processes for open-system experiments.

The closed-form experiments submit all processes at virtual time zero.
The saturation experiment (E10) instead offers load at a controlled
rate; this module generates the arrival time series.
"""

from __future__ import annotations

from repro.sim.rng import derive_rng


def poisson_arrivals(
    rate: float, count: int, seed: int = 0
) -> list[float]:
    """``count`` arrival times with exponential inter-arrivals.

    ``rate`` is the offered load in processes per virtual time unit.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive (got {rate})")
    rng = derive_rng(seed, "poisson-arrivals")
    now = 0.0
    times = []
    for __ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times

