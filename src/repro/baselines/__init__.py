"""Baseline scheduling protocols for the comparison experiments."""

from repro.baselines.aca import CascadeAvoidingScheduler
from repro.baselines.base import BaselineProtocol
from repro.baselines.osl import PureOrderedSharedLocking
from repro.baselines.s2pl import StrictTwoPhaseLocking
from repro.baselines.serial import SerialScheduler

__all__ = [
    "BaselineProtocol",
    "CascadeAvoidingScheduler",
    "PureOrderedSharedLocking",
    "SerialScheduler",
    "StrictTwoPhaseLocking",
]
