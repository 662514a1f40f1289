"""Unit tests for guaranteed-termination validation."""

import pytest

from repro.errors import ProcessProgramError
from repro.process.builder import ProgramBuilder
from repro.process.program import ProcessProgram, ProgramNode
from repro.process.validation import (
    is_assured_subtree,
    validate_guaranteed_termination,
)


def program_from_root(root, registry, name="manual") -> ProcessProgram:
    return ProcessProgram(name=name, root=root, registry=registry)


class TestAssuredSubtrees:
    def test_retriable_chain_is_assured(self, registry):
        chain = ProgramNode(
            ("ship",), (ProgramNode(("ship",), (), 2),), 1
        )
        assert is_assured_subtree(chain, registry)

    def test_compensatable_breaks_assurance(self, registry):
        node = ProgramNode(("reserve",), (), 1)
        assert not is_assured_subtree(node, registry)

    def test_branching_breaks_assurance(self, registry):
        node = ProgramNode(
            ("ship",),
            (ProgramNode(("ship",), (), 2), ProgramNode(("ship",), (), 3)),
            1,
        )
        assert not is_assured_subtree(node, registry)

    def test_retriable_compensatable_counts_as_retriable(self, registry):
        node = ProgramNode(("audit",), (), 1)
        assert is_assured_subtree(node, registry)


class TestGuaranteedTermination:
    def test_valid_program_passes(self, order_program):
        validate_guaranteed_termination(order_program)

    def test_pivot_last_alternative_must_be_assured(self, registry):
        root = ProgramNode(
            ("charge",),
            (
                ProgramNode(("ship",), (), 2),
                ProgramNode(("reserve",), (), 3),  # fallible last branch
            ),
            1,
        )
        with pytest.raises(ProcessProgramError):
            validate_guaranteed_termination(
                program_from_root(root, registry)
            )

    def test_pivot_single_fallible_child_rejected(self, registry):
        root = ProgramNode(
            ("charge",), (ProgramNode(("reserve",), (), 2),), 1
        )
        with pytest.raises(ProcessProgramError):
            validate_guaranteed_termination(
                program_from_root(root, registry)
            )

    def test_pivot_single_assured_child_accepted(self, registry):
        root = ProgramNode(
            ("charge",), (ProgramNode(("ship",), (), 2),), 1
        )
        validate_guaranteed_termination(
            program_from_root(root, registry)
        )

    def test_pivot_without_children_accepted(self, registry):
        root = ProgramNode(("charge",), (), 1)
        validate_guaranteed_termination(
            program_from_root(root, registry)
        )

    def test_alternatives_off_non_pivot_rejected(self, registry):
        root = ProgramNode(
            ("reserve",),
            (ProgramNode(("wrap",), (), 2), ProgramNode(("ship",), (), 3)),
            1,
        )
        with pytest.raises(ProcessProgramError):
            validate_guaranteed_termination(
                program_from_root(root, registry)
            )

    def test_pivot_inside_parallel_node_rejected(self, registry):
        root = ProgramNode(("reserve", "charge"), (), 1)
        with pytest.raises(ProcessProgramError):
            validate_guaranteed_termination(
                program_from_root(root, registry)
            )

    def test_compensating_activity_in_program_rejected(self, registry):
        root = ProgramNode(("reserve^-1",), (), 1)
        with pytest.raises(ProcessProgramError):
            validate_guaranteed_termination(
                program_from_root(root, registry)
            )

    def test_duplicate_node_ids_rejected(self, registry):
        root = ProgramNode(
            ("reserve",), (ProgramNode(("wrap",), (), 1),), 1
        )
        with pytest.raises(ProcessProgramError):
            validate_guaranteed_termination(
                program_from_root(root, registry)
            )

    def test_nested_pivot_in_alternative_accepted(self, registry):
        """Alternatives may recursively be full process programs."""
        program = (
            ProgramBuilder("nested", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(
                lambda b: b.step("wrap")
                .pivot("ship")  # retriable non-comp is a PNR
                .alternatives(lambda bb: bb.step("audit")),
                lambda b: b.step("ship"),
            )
            .build()
        )
        validate_guaranteed_termination(program)

    def test_builder_validates_on_build(self, registry):
        builder = (
            ProgramBuilder("bad", registry)
            .pivot("charge")
            .alternatives(lambda b: b.step("reserve"))
        )
        with pytest.raises(ProcessProgramError):
            builder.build()
        # And bypassing validation is possible for testing purposes:
        broken = builder.build(validate=False)
        assert any(
            registry.get(name).point_of_no_return
            for name in broken.activity_names()
        )
