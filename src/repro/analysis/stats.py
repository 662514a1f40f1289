"""Statistics helpers for repeated-run experiments."""

from __future__ import annotations


def monotone_increasing(values: list[float], slack: float = 0.0) -> bool:
    """Whether the series increases (within ``slack`` tolerance)."""
    return all(
        later >= earlier - slack
        for earlier, later in zip(values, values[1:])
    )
