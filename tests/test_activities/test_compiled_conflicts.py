"""Property tests: the compiled bitset plane agrees with the declared pairs.

The hot path reads the conflict relation exclusively through
:class:`CompiledConflicts` (dense type ids + per-type bitmasks); the
declared pair set of :class:`ConflictMatrix` stays its oracle.  These
tests build randomized registries and relations and assert the two
never disagree, ``close_perfect`` closures included — and that once the
plane is compiled the relation is fixed: a later declaration or closure
raises, and a type registered later stays out of the plane.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.activities.commutativity import (
    CompiledConflicts,
    ConflictMatrix,
    iter_bits,
)
from repro.activities.registry import ActivityRegistry
from repro.errors import CommutativityError

#: Base (regular) activity names; each registration adds the ``^-1``
#: compensation partner too, so the registry holds up to 12 types.
BASE_NAMES = [f"b{i}" for i in range(6)]


def make_registry(n_base: int) -> ActivityRegistry:
    registry = ActivityRegistry()
    for name in BASE_NAMES[:n_base]:
        registry.define_compensatable(
            name, "shop", cost=1.0, compensation_cost=0.5
        )
    return registry


def all_names(registry: ActivityRegistry) -> list[str]:
    return [activity_type.name for activity_type in registry]


def plane_conflict(plane: CompiledConflicts, first: str, second: str) -> bool:
    return bool(plane.masks[plane.id_of(first)] >> plane.id_of(second) & 1)


def assert_plane_agrees(
    plane: CompiledConflicts, matrix: ConflictMatrix
) -> None:
    names = all_names(matrix.registry)
    # Dense ids cover the registry in definition order.
    assert plane.names == names
    assert plane.index == {name: i for i, name in enumerate(names)}
    for first in names:
        assert matrix.conflicting_types(first) == frozenset(
            second for second in names if matrix.conflict(first, second)
        )
        for second in names:
            assert plane_conflict(plane, first, second) == matrix.conflict(
                first, second
            )
    # Bitmask symmetry mirrors the symmetric relation.
    for i, mask in enumerate(plane.masks):
        for j in iter_bits(mask):
            assert plane.masks[j] >> i & 1


@st.composite
def relation(draw):
    n_base = draw(st.integers(min_value=1, max_value=len(BASE_NAMES)))
    registry = make_registry(n_base)
    names = all_names(registry)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=12,
        )
    )
    matrix = ConflictMatrix(registry)
    for first, second in pairs:
        matrix.declare_conflict(first, second)
    return registry, matrix


class TestCompiledAgreement:
    @settings(max_examples=80, deadline=None)
    @given(rel=relation(), close=st.booleans())
    def test_plane_matches_dict_matrix(self, rel, close):
        _, matrix = rel
        if close:
            matrix.close_perfect()
        assert_plane_agrees(matrix.compiled(), matrix)

    @settings(max_examples=60, deadline=None)
    @given(rel=relation())
    def test_close_perfect_closure_lands_in_the_plane(self, rel):
        _, matrix = rel
        matrix.close_perfect()
        plane = matrix.compiled()
        assert matrix.is_perfect()
        assert_plane_agrees(plane, matrix)
        # Perfect closure: a regular-pair conflict implies the whole
        # {a, a^-1} x {b, b^-1} family conflicts, in bitmask form.
        registry = matrix.registry
        for first in all_names(registry):
            comp_first = registry.get(first).compensated_by
            for second in all_names(registry):
                if not plane_conflict(plane, first, second):
                    continue
                comp_second = registry.get(second).compensated_by
                if comp_first is not None:
                    assert plane_conflict(plane, comp_first, second)
                if comp_second is not None:
                    assert plane_conflict(plane, first, comp_second)


class TestCompiledOnce:
    """After the first ``compiled()`` the relation cannot change."""

    @settings(max_examples=60, deadline=None)
    @given(
        rel=relation(),
        extra=st.tuples(
            st.sampled_from(BASE_NAMES), st.sampled_from(BASE_NAMES)
        ),
    )
    def test_post_compile_declaration_raises(self, rel, extra):
        registry, matrix = rel
        first, second = extra
        assume(first in registry and second in registry)
        plane = matrix.compiled()
        masks, pairs = list(plane.masks), matrix.pairs()
        with pytest.raises(CommutativityError, match="already compiled"):
            matrix.declare_conflict(first, second)
        assert matrix.pairs() == pairs
        assert matrix.compiled() is plane
        assert plane.masks == masks

    @settings(max_examples=40, deadline=None)
    @given(rel=relation())
    def test_post_compile_close_perfect_raises(self, rel):
        _, matrix = rel
        plane = matrix.compiled()
        pairs = matrix.pairs()
        with pytest.raises(CommutativityError, match="already compiled"):
            matrix.close_perfect()
        assert matrix.pairs() == pairs
        assert matrix.compiled() is plane

    @settings(max_examples=40, deadline=None)
    @given(rel=relation())
    def test_late_type_is_not_in_the_plane(self, rel):
        registry, matrix = rel
        plane = matrix.compiled()
        names = list(plane.names)
        registry.define_compensatable(
            "late", "shop", cost=1.0, compensation_cost=0.5
        )
        assert matrix.compiled() is plane
        assert plane.names == names
        with pytest.raises(CommutativityError, match="'late'"):
            plane.id_of("late")
        with pytest.raises(CommutativityError, match="already compiled"):
            matrix.declare_conflict("late", names[0])


class TestPlaneValidation:
    def test_unknown_type_raises(self):
        matrix = ConflictMatrix(make_registry(2))
        plane = matrix.compiled()
        with pytest.raises(CommutativityError):
            plane.id_of("nope")
        with pytest.raises(CommutativityError):
            matrix.conflicting_types("nope")

    def test_unchanged_relation_reuses_the_plane(self):
        matrix = ConflictMatrix(make_registry(3))
        matrix.declare_conflict("b0", "b1")
        assert matrix.compiled() is matrix.compiled()
