"""Deeper fault-tolerance integration: repeated crashes, grounded
recovery, and randomly shaped programs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.protocol import ProcessLockManager
from repro.process.builder import ProgramBuilder
from repro.scheduler.manager import ProcessManager
from repro.scheduler.recovery import crash, recover
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)


class TestRepeatedCrashes:
    def test_double_crash_still_converges(self):
        workload = build_workload(
            WorkloadSpec(
                n_processes=6, conflict_density=0.5,
                failure_probability=0.1, seed=11,
            )
        )
        manager = ProcessManager(
            make_protocol("process-locking", workload),
            seed=11,
        )
        for program in workload.programs:
            manager.submit(program)
        manager.engine.run_steps(20)
        first_image = crash(manager)
        recovered = recover(
            first_image,
            make_protocol("process-locking", workload),
            seed=11,
        )
        recovered.engine.run_steps(15)
        second_image = crash(recovered)
        final = recover(
            second_image,
            make_protocol("process-locking", workload),
            seed=11,
        )
        result = final.run()
        schedule = result.trace.to_schedule(
            workload.conflicts.conflict
        )
        assert schedule.is_complete
        assert has_correct_termination(schedule)
        assert is_process_recoverable(schedule)


class TestGroundedRecovery:
    def test_subsystems_survive_pm_crash(self):
        """Subsystems are independent systems: the PM crash loses the
        PM's volatile state only; committed subsystem effects persist
        and the recovered run compensates exactly the right ones."""
        workload = build_workload(
            WorkloadSpec(
                n_processes=6, grounded=True,
                failure_probability=0.1, seed=6,
            )
        )
        pool = workload.make_subsystems()
        manager = ProcessManager(
            make_protocol("process-locking", workload),
            subsystems=pool,
            seed=6,
        )
        for program in workload.programs:
            manager.submit(program)
        manager.engine.run_steps(35)
        image = crash(manager)
        recovered = recover(
            image,
            make_protocol("process-locking", workload),
            subsystems=pool,  # the very same, still-running systems
            seed=6,
        )
        recovered.run()
        for subsystem in pool:
            assert subsystem.counters.validated == subsystem.committed_count


@st.composite
def random_program(draw):
    """A random guaranteed-termination program over a tiny registry."""
    registry = ActivityRegistry()
    registry.define_compensatable(
        "c1", "s", cost=1.0, compensation_cost=0.5,
        failure_probability=draw(
            st.floats(min_value=0.0, max_value=0.4)
        ),
    )
    registry.define_compensatable(
        "c2", "s", cost=2.0, compensation_cost=0.5,
        failure_probability=draw(
            st.floats(min_value=0.0, max_value=0.4)
        ),
    )
    registry.define_pivot(
        "piv", "s", cost=1.0,
        failure_probability=draw(
            st.floats(min_value=0.0, max_value=0.3)
        ),
    )
    registry.define_retriable("ret", "s", cost=1.0)

    def build(builder: ProgramBuilder, depth: int) -> None:
        for __ in range(draw(st.integers(min_value=1, max_value=3))):
            builder.step(draw(st.sampled_from(["c1", "c2"])))
        if depth < 2 and draw(st.booleans()):
            branch_count = draw(st.integers(min_value=0, max_value=2))

            def fallible_branch(nested: ProgramBuilder) -> None:
                build(nested, depth + 1)

            def assured_branch(nested: ProgramBuilder) -> None:
                nested.step("ret")

            branches = [fallible_branch] * branch_count
            branches.append(assured_branch)
            builder.pivot("piv").alternatives(*branches)

    builder = ProgramBuilder("random", registry)
    build(builder, 0)
    return registry, builder.build()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=999))
def test_property_random_programs_always_terminate(data, seed):
    """Any validated random program runs to commit or clean abort,
    alone and in self-conflicting pairs."""
    registry, program = data.draw(random_program())
    conflicts = ConflictMatrix(registry)
    conflicts.declare_conflict("c1", "c1")
    conflicts.declare_conflict("c2", "piv")
    conflicts.close_perfect()
    protocol = ProcessLockManager(registry, conflicts)
    manager = ProcessManager(protocol, seed=seed)
    manager.submit(program)
    manager.submit(program)
    result = manager.run()
    schedule = result.trace.to_schedule(conflicts.conflict)
    assert schedule.is_complete
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)
