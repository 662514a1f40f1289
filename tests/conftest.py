"""Shared fixtures for the process-locking test suite."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings as hypothesis_settings

import repro.activities.activity as _activity_module
import repro.core.locks as _locks_module
from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.protocol import ProcessLockManager
from repro.process.builder import ProgramBuilder
from repro.process.instance import Process
from repro.process.program import ProcessProgram


# Tier-1 is a fixed suite: every ``@given`` test draws the same examples
# on every run and neither reads nor writes a local ``.hypothesis/``
# example database.  Each ``@settings(...)`` in the suite inherits both
# from this profile.
hypothesis_settings.register_profile(
    "tier1", derandomize=True, database=None
)
hypothesis_settings.load_profile("tier1")
# CI's ``smoke`` job draws fresh examples, many more of them, for the
# tests that take their example count from the profile
# (``pytest tests/test_theory --hypothesis-profile=smoke``).
hypothesis_settings.register_profile(
    "smoke", max_examples=2000, deadline=None, database=None
)

#: Strictly increasing uid/lock-id floors, one per pinned run pair,
#: shared by every :class:`UidFloorPinner` in the session.  Activity
#: uids and lock ids come from module-global counters and are written
#: into trace records, journal frames and lock entries as they are, so
#: two runs are only *byte*-comparable when they start from the same
#: floor.  (The schedule itself does not depend on them:
#: ``test_schedule_golden.py``.)  The floors stay monotone so other
#: tests in the same interpreter keep their uid-ordering assumptions.
_UID_FLOORS = itertools.count(10_000_000, 10_000_000)


class UidFloorPinner:
    """Pin the global activity/lock-id counters for paired runs.

    ``pin()`` claims a fresh floor and restarts both counters there;
    ``repin()`` restarts them at the *same* floor, making the next run
    byte-comparable (identical uids, hence identical traces) with the
    previous one.
    """

    def __init__(self) -> None:
        self.floor: int | None = None

    def pin(self) -> int:
        """Claim a fresh floor and restart both counters at it."""
        self.floor = next(_UID_FLOORS)
        self.repin()
        return self.floor

    def repin(self) -> None:
        """Restart both counters at the current floor (paired run)."""
        if self.floor is None:
            raise RuntimeError("call pin() before repin()")
        _activity_module._activity_ids = itertools.count(self.floor)
        _locks_module._lock_ids = itertools.count(self.floor)


@pytest.fixture
def uid_floor() -> UidFloorPinner:
    """Per-test pinner for byte-comparable paired simulation runs."""
    return UidFloorPinner()


@pytest.fixture
def registry() -> ActivityRegistry:
    """A small catalogue covering all four activity classes.

    * ``reserve`` / ``wrap`` — compensatable (``wrap`` conflicts nothing)
    * ``charge`` — pivot
    * ``ship`` — retriable (non-compensatable)
    * ``audit`` — retriable *and* compensatable
    """
    reg = ActivityRegistry()
    reg.define_compensatable(
        "reserve", "shop", cost=2.0, compensation_cost=1.0,
        failure_probability=0.1,
    )
    reg.define_compensatable(
        "wrap", "shop", cost=1.0, compensation_cost=0.5
    )
    reg.define_pivot("charge", "bank", cost=1.0, failure_probability=0.05)
    reg.define_retriable("ship", "shop", cost=1.5)
    reg.define_retriable("audit", "bank", cost=0.5, compensation_cost=0.1)
    return reg


@pytest.fixture
def conflicts(registry: ActivityRegistry) -> ConflictMatrix:
    """``reserve`` self-conflicts and conflicts ``wrap``; rest commutes."""
    matrix = ConflictMatrix(registry)
    matrix.declare_conflict("reserve", "reserve")
    matrix.declare_conflict("reserve", "wrap")
    matrix.declare_conflict("charge", "charge")
    matrix.close_perfect()
    return matrix


@pytest.fixture
def order_program(registry: ActivityRegistry) -> ProcessProgram:
    """reserve → wrap → charge (pivot) → [ship] with assured fallback."""
    return (
        ProgramBuilder("order", registry)
        .step("reserve")
        .step("wrap")
        .pivot("charge")
        .alternatives(lambda b: b.step("ship"))
        .build()
    )


@pytest.fixture
def flat_program(registry: ActivityRegistry) -> ProcessProgram:
    """A pivot-free program (behaves like a regular transaction)."""
    return (
        ProgramBuilder("flat", registry)
        .step("reserve")
        .step("wrap")
        .build()
    )


@pytest.fixture
def protocol(registry, conflicts) -> ProcessLockManager:
    return ProcessLockManager(registry, conflicts)


def make_process(
    protocol: ProcessLockManager,
    program: ProcessProgram,
    pid: int,
) -> Process:
    """Create, timestamp, and attach a process (helper, not a fixture)."""
    process = Process(
        pid=pid, program=program, timestamp=protocol.new_timestamp()
    )
    protocol.attach(process)
    return process
