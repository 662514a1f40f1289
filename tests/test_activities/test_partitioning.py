"""Tests for partitioned activity-type families."""

import pytest

from repro.activities.commutativity import ConflictMatrix
from repro.activities.partitioning import (
    base_of,
    coarse_equivalent,
    declare_family_cross_conflicts,
    declare_family_self_conflicts,
    define_partitioned_compensatable,
    partition_of,
)
from repro.activities.registry import ActivityRegistry
from repro.errors import ActivityModelError


@pytest.fixture
def family_env():
    registry = ActivityRegistry()
    family = define_partitioned_compensatable(
        registry, "reserve", ["sku0", "sku1", "sku2"], "shop",
        cost=2.0, compensation_cost=1.0,
    )
    matrix = ConflictMatrix(registry)
    return registry, matrix, family


class TestDefinition:
    def test_one_type_per_partition(self, family_env):
        registry, __, family = family_env
        assert family.member_names == (
            "reserve@sku0", "reserve@sku1", "reserve@sku2",
        )
        for name in family.member_names:
            assert name in registry
            assert registry.get(name).compensatable

    def test_member_lookup(self, family_env):
        __, __, family = family_env
        assert family.member("sku1") == "reserve@sku1"
        with pytest.raises(ActivityModelError):
            family.member("nope")

    def test_empty_partitions_rejected(self):
        registry = ActivityRegistry()
        with pytest.raises(ActivityModelError):
            define_partitioned_compensatable(
                registry, "x", [], "s", cost=1.0
            )

    def test_name_helpers(self):
        assert base_of("reserve@sku1") == "reserve"
        assert partition_of("reserve@sku1") == "sku1"
        assert base_of("plain") == "plain"
        assert partition_of("plain") is None


class TestConflictShapes:
    def test_self_conflicts_stay_within_partition(self, family_env):
        __, matrix, family = family_env
        declare_family_self_conflicts(matrix, family)
        matrix.close_perfect()
        assert matrix.conflict("reserve@sku0", "reserve@sku0")
        assert not matrix.conflict("reserve@sku0", "reserve@sku1")

    def test_coarse_equivalent_conflicts_everywhere(self, family_env):
        registry, matrix, family = family_env
        coarse_equivalent(registry, matrix, family)
        matrix.close_perfect()
        assert matrix.conflict("reserve@sku0", "reserve@sku1")

    def test_aligned_cross_family(self):
        registry = ActivityRegistry()
        reserve = define_partitioned_compensatable(
            registry, "reserve", ["a", "b"], "shop", cost=1.0,
            compensation_cost=0.5,
        )
        release = define_partitioned_compensatable(
            registry, "release", ["a", "b"], "shop", cost=1.0,
            compensation_cost=0.5,
        )
        matrix = ConflictMatrix(registry)
        declare_family_cross_conflicts(matrix, reserve, release)
        matrix.close_perfect()
        assert matrix.conflict("reserve@a", "release@a")
        assert not matrix.conflict("reserve@a", "release@b")

    def test_unaligned_cross_family(self):
        registry = ActivityRegistry()
        reserve = define_partitioned_compensatable(
            registry, "reserve", ["a", "b"], "shop", cost=1.0,
            compensation_cost=0.5,
        )
        audit = define_partitioned_compensatable(
            registry, "audit", ["a", "b"], "shop", cost=1.0,
            compensation_cost=0.5,
        )
        matrix = ConflictMatrix(registry)
        declare_family_cross_conflicts(
            matrix, reserve, audit, aligned=False
        )
        matrix.close_perfect()
        assert matrix.conflict("reserve@a", "audit@b")


class TestEndToEnd:
    def test_partitioned_runs_more_concurrently(self):
        """Two processes hitting different partitions interleave freely;
        the coarse matrix serializes their conflicting executions."""
        from repro.core.protocol import ProcessLockManager
        from repro.process.builder import ProgramBuilder
        from repro.scheduler.manager import ProcessManager

        def run(aligned: bool) -> float:
            registry = ActivityRegistry()
            family = define_partitioned_compensatable(
                registry, "reserve", ["s0", "s1"], "shop",
                cost=4.0, compensation_cost=1.0,
            )
            matrix = ConflictMatrix(registry)
            if aligned:
                declare_family_self_conflicts(matrix, family)
            else:
                coarse_equivalent(registry, matrix, family)
            matrix.close_perfect()
            protocol = ProcessLockManager(registry, matrix)
            manager = ProcessManager(protocol)
            for partition in ("s0", "s1"):
                program = (
                    ProgramBuilder(f"p-{partition}", registry)
                    .step(family.member(partition))
                    .build()
                )
                manager.submit(program)
            return manager.run().makespan

        assert run(aligned=True) == pytest.approx(4.0)   # parallel
        assert run(aligned=False) == pytest.approx(8.0)  # serialized
