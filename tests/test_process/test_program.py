"""Unit tests for process program trees and the fluent builder."""

import math

import pytest

from repro.errors import ProcessProgramError
from repro.process.builder import ProgramBuilder
from repro.process.costing import enumerate_paths, path_cost
from repro.process.program import ProgramNode


class TestBuilder:
    def test_linear_sequence(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .sequence("reserve", "wrap")
            .build()
        )
        assert program.root.activities == ("reserve",)
        assert program.root.children[0].activities == ("wrap",)
        assert len(list(program.iter_nodes())) == 2

    def test_parallel_node(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .parallel("reserve", "wrap")
            .build()
        )
        assert program.root.is_parallel
        assert program.root.activities == ("reserve", "wrap")

    def test_parallel_needs_two(self, registry):
        with pytest.raises(ProcessProgramError):
            ProgramBuilder("p", registry).parallel("reserve")

    def test_pivot_requires_point_of_no_return(self, registry):
        with pytest.raises(ProcessProgramError):
            ProgramBuilder("p", registry).pivot("reserve")

    def test_alternatives_close_the_chain(self, registry):
        builder = (
            ProgramBuilder("p", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
        )
        with pytest.raises(ProcessProgramError):
            builder.step("wrap")

    def test_alternatives_only_once(self, registry):
        builder = (
            ProgramBuilder("p", registry)
            .pivot("charge")
            .alternatives(lambda b: b.step("ship"))
        )
        with pytest.raises(ProcessProgramError):
            builder.alternatives(lambda b: b.step("ship"))

    def test_alternatives_without_steps_rejected(self, registry):
        with pytest.raises(ProcessProgramError):
            ProgramBuilder("p", registry).alternatives(
                lambda b: b.step("ship")
            )

    def test_empty_program_rejected(self, registry):
        with pytest.raises(ProcessProgramError):
            ProgramBuilder("p", registry).build()

    def test_unknown_activity_rejected_early(self, registry):
        with pytest.raises(Exception):
            ProgramBuilder("p", registry).step("ghost")

    def test_node_ids_unique_across_branches(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .step("reserve")
            .pivot("charge")
            .alternatives(
                lambda b: b.sequence("wrap"),
                lambda b: b.sequence("ship", "ship"),
            )
            .build()
        )
        ids = [node.node_id for node in program.iter_nodes()]
        assert len(ids) == len(set(ids))


class TestProgramQueries:
    def test_activity_names(self, order_program):
        assert order_program.activity_names() == {
            "reserve", "wrap", "charge", "ship",
        }

    def test_has_pivot(self, order_program, flat_program):
        def has_pivot(program):
            return any(
                program.registry.get(name).point_of_no_return
                for name in program.activity_names()
            )

        assert has_pivot(order_program)
        assert not has_pivot(flat_program)

    def test_preferred_path_cost(self, registry, order_program):
        # reserve 2.0 + wrap 1.0 + charge 1.0 + ship 1.5
        preferred = enumerate_paths(order_program)[0]
        assert path_cost(registry, preferred) == pytest.approx(5.5)

    def test_is_point_of_no_return(self, registry, order_program):
        nodes = list(order_program.iter_nodes())
        pivots = [
            node
            for node in nodes
            if order_program.is_point_of_no_return(node)
        ]
        names = {node.activities[0] for node in pivots}
        # charge is a pivot; ship is retriable non-compensatable.
        assert names == {"charge", "ship"}

    def test_describe_mentions_alternatives(self, registry):
        program = (
            ProgramBuilder("p", registry)
            .pivot("charge")
            .alternatives(
                lambda b: b.step("wrap"),
                lambda b: b.step("ship"),
            )
            .build()
        )
        text = program.describe()
        assert "alt0" in text and "alt1" in text

    def test_negative_threshold_rejected(self, registry):
        with pytest.raises(ProcessProgramError):
            ProgramBuilder("p", registry, wcc_threshold=-1.0).step(
                "reserve"
            ).build()

    def test_default_threshold_is_infinite(self, flat_program):
        assert flat_program.wcc_threshold == math.inf


class TestProgramNode:
    def test_empty_node_rejected(self):
        with pytest.raises(ProcessProgramError):
            ProgramNode(activities=())

    def test_iter_subtree_preorder(self, order_program):
        names = [
            node.activities[0] for node in order_program.iter_nodes()
        ]
        assert names == ["reserve", "wrap", "charge", "ship"]
