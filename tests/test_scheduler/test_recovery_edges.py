"""Crash-recovery edge cases: awkward states at the crash instant.

The basic recovery tests crash at arbitrary step counts; these target
the states most likely to break splicing and the theory guarantees:

* a crash while a process is **mid-compensation** (ABORTING with its
  abort-process execution under way),
* a crash while a commit request is **parked** behind ordered sharing
  (the process is COMPLETING and must still commit after recovery),
* **back-to-back crashes** — the second manager incarnation crashes
  again before reaching quiescence,
* a **resume race**: a process recovered RUNNING is cascade-aborted by
  an earlier same-time resume callback before its own resume fires.

Every case asserts the spliced end-to-end schedule is complete, CT, and
P-RC.
"""

from __future__ import annotations

from repro.scheduler.events import RequestKind
from repro.scheduler.manager import ProcessManager
from repro.scheduler.recovery import crash, recover
from repro.sim.arrivals import poisson_arrivals
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)


def fresh_manager(workload, seed):
    manager = ProcessManager(
        make_protocol("process-locking", workload),
        seed=seed,
    )
    for program in workload.programs:
        manager.submit(program)
    return manager


def run_until(manager, predicate, budget=600):
    """Step one event at a time until ``predicate(manager)`` holds.

    Returns the number of events fired, or ``None`` if the simulation
    drained or the budget ran out first.
    """
    for fired in range(1, budget + 1):
        if manager.engine.run_steps(1) == 0:
            return None
        if predicate(manager):
            return fired
    return None


def recover_fresh(workload, image, seed):
    protocol = make_protocol("process-locking", workload)
    return recover(image, protocol, seed=seed)


def assert_spliced_and_correct(workload, image, result):
    prior = len(image.trace_events)
    assert result.trace.events[:prior] == image.trace_events
    schedule = result.trace.to_schedule(workload.conflicts.conflict)
    assert schedule.is_complete
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)


class TestCrashMidCompensation:
    #: Seed 0 reaches an ABORTING process (compensation under way)
    #: within ~25 events under this spec (verified; deterministic).
    SPEC = WorkloadSpec(
        n_processes=6,
        conflict_density=0.5,
        failure_probability=0.25,
        seed=0,
    )

    def test_crash_while_aborting_still_terminates_correctly(self):
        workload = build_workload(self.SPEC)
        manager = fresh_manager(workload, seed=0)
        steps = run_until(
            manager,
            lambda m: "aborting" in m.undecided().values(),
        )
        assert steps is not None, "never observed an ABORTING process"
        aborting = {
            pid
            for pid, phase in manager.undecided().items()
            if phase == "aborting"
        }
        image = crash(manager)
        recovered = recover_fresh(workload, image, seed=0)
        result = recovered.run()
        assert_spliced_and_correct(workload, image, result)
        # The interrupted abort-process executions must have finished:
        # an aborting process never commits in that incarnation — it
        # ends aborted, or only a resubmitted successor commits later.
        for pid in aborting:
            record = result.records[pid]
            assert (
                record.outcome != "committed" or record.resubmissions > 0
            )


class TestCrashWithParkedCommit:
    #: Seed 33 parks a COMMIT request behind ordered sharing within
    #: ~40 events under this spec (verified; deterministic).
    SPEC = WorkloadSpec(
        n_processes=8,
        conflict_density=0.7,
        failure_probability=0.05,
        seed=33,
    )

    def test_parked_commit_survives_crash_and_commits(self):
        workload = build_workload(self.SPEC)
        manager = fresh_manager(workload, seed=33)
        def parked_commits(m):
            return {
                request.process.pid
                for request in m.parking
                if request.kind is RequestKind.COMMIT
            }

        steps = run_until(manager, parked_commits)
        assert steps is not None, "never observed a parked commit"
        parked = parked_commits(manager)
        image = crash(manager)
        recovered = recover_fresh(workload, image, seed=33)
        result = recovered.run()
        assert_spliced_and_correct(workload, image, result)
        # Forward recovery: a process whose commit was parked was
        # COMPLETING, and completing processes must commit.
        for pid in parked:
            assert result.records[pid].committed_at is not None, (
                f"P{pid} had a parked commit but never committed"
            )


class TestBackToBackCrashes:
    SPEC = WorkloadSpec(
        n_processes=6,
        conflict_density=0.4,
        failure_probability=0.08,
        seed=5,
    )

    def test_double_crash_splices_twice(self):
        workload = build_workload(self.SPEC)
        manager = fresh_manager(workload, seed=5)
        manager.engine.run_steps(25)
        first = crash(manager)
        second_manager = recover_fresh(workload, first, seed=6)
        # Crash again almost immediately — the second incarnation has
        # only re-adopted its processes and done a little work.
        second_manager.engine.run_steps(10)
        second = crash(second_manager)
        assert second.trace_events[: len(first.trace_events)] == (
            first.trace_events
        )
        third_manager = recover_fresh(workload, second, seed=7)
        result = third_manager.run()
        assert_spliced_and_correct(workload, second, result)
        # And the full three-incarnation splice holds end to end.
        assert result.trace.events[: len(first.trace_events)] == (
            first.trace_events
        )

    def test_immediate_recrash_before_any_step(self):
        workload = build_workload(self.SPEC)
        manager = fresh_manager(workload, seed=5)
        manager.engine.run_steps(30)
        first = crash(manager)
        second_manager = recover_fresh(workload, first, seed=5)
        # Crash before the recovered manager fires a single event: the
        # journal round-trips through a second capture unchanged.
        second = crash(second_manager)
        assert {s.pid for s in second.snapshots} == {
            s.pid for s in first.snapshots
        }
        third_manager = recover_fresh(workload, second, seed=5)
        result = third_manager.run()
        assert_spliced_and_correct(workload, second, result)


class TestRecoveryResumeRace:
    """Adoption-time cascades must not overlap the recovery resume.

    Adopted processes resume via same-time callbacks; an earlier
    callback's lock request can cascade-abort a process that was
    recovered RUNNING before its own callback fires.  The stale
    recovery resume must stand down — before the guard in
    ``adopt_recovered`` it started a second compensation run and the
    manager raised ``SchedulerError: overlapping compensation runs``.
    Seed 16 + 9 pre-crash events reach the race deterministically.
    """

    SPEC = WorkloadSpec(
        n_processes=5,
        n_activity_types=10,
        conflict_density=0.5,
        failure_probability=0.1,
        parallel_probability=0.3,
        alternative_count=2,
        wcc_threshold=15.0,
        grounded=True,
        seed=16,
    )

    def test_cascade_during_adoption_does_not_overlap(self):
        workload = build_workload(self.SPEC)
        pool = workload.make_subsystems()
        manager = ProcessManager(
            make_protocol("process-locking", workload),
            subsystems=pool,
            seed=16,
        )
        arrivals = poisson_arrivals(0.3, len(workload.programs), seed=16)
        for index, program in enumerate(workload.programs):
            manager.submit(program, at=arrivals[index])
        manager.engine.run_steps(9)
        running_at_crash = {
            pid
            for pid, phase in manager.undecided().items()
            if phase == "running"
        }
        image = crash(manager)
        recovered = recover(
            image,
            make_protocol("process-locking", workload),
            subsystems=pool,
            seed=16,
        )
        starts: list[tuple[float, int, str]] = []
        inner = recovered._start_compensation_run

        def spy(process, plan, label, then):
            starts.append((recovered.engine.now, process.pid, label))
            inner(process, plan, label, then)

        recovered._start_compensation_run = spy
        result = recovered.run()
        assert_spliced_and_correct(workload, image, result)
        # The race itself must occur: a process recovered RUNNING is
        # cascade-aborted in the adoption batch (recovered vt 0.0) ...
        raced = {
            pid
            for now, pid, label in starts
            if now == 0.0
            and pid in running_at_crash
            and label == "protocol-abort:cascade"
        }
        assert raced, "no adoption-time cascade hit a RUNNING process"
        # ... and its recovery resume stood down instead of starting a
        # second, overlapping compensation run.
        for pid in raced:
            assert [
                label
                for now, started, label in starts
                if started == pid and now == 0.0
            ] == ["protocol-abort:cascade"]
