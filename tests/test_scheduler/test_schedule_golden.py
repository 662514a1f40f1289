"""Golden schedule digests: the refactoring safety net.

Five fixed points and the sha256 of their canonical traces.  A digest
that moves means a *schedule* changed — a refactor that claims to be
behaviour-preserving is wrong, not slower.  Recorded at commit 343d128;
recorded again when the restart gate (``ProcessManager._start``)
changed when a cascade victim comes back; and ``pl-40``, ``pl-80``,
``pl-60-seed3`` and ``osl-40`` once more when gated flights began to be
released in gate order (``s2pl-40`` did not move).

Until then a schedule depended on the absolute values of its activity
uids: the flights gated behind a finishing one were kept in a set of
ints and started in its iteration order, so the same point gave one
digest in a fresh interpreter and another after other runs had advanced
the module-global uid counter, and every point had to be replayed in a
subprocess.  They run here, in whatever state the suite left the
counters in, and once more in reverse order;
``test_a_raised_uid_floor_does_not_change_the_schedule`` pins the cause.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

import repro.activities.activity as activity_module
from repro.faults.harness import canonical_trace
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload


def _spec6(n_processes, density, spacing, seed) -> WorkloadSpec:
    """The six-subsystem contention shape the digests below were recorded on.

    The digests pin these exact numbers.
    """
    return WorkloadSpec(
        n_processes=n_processes,
        n_activity_types=36,
        n_subsystems=6,
        conflict_density=density,
        arrival_spacing=spacing,
        failure_probability=0.02,
        seed=seed,
    )


#: name -> (spec, protocol, recorded digest)
POINTS = {
    "pl-40": (
        _spec6(40, 0.5, 0.25, 7), "process-locking",
        "48383dd354c18b369fd8982f8d5eff0663b160fda6d91ebf0db13c1f9c988471",
    ),
    "pl-80": (
        _spec6(80, 0.5, 0.25, 7), "process-locking",
        "1566107da87379c588c872abe1eb454e6d9323a4592590d81e40a402a2147f2c",
    ),
    "pl-60-seed3": (
        _spec6(60, 0.6, 0.2, 3), "process-locking",
        "c2611df4fd19947dd775aabc713ab5b88942bd34b16e646ccac4ed8cb2d3de1f",
    ),
    "s2pl-40": (
        _spec6(40, 0.5, 0.25, 7), "s2pl",
        "235ae4bed72605fcc93d5fdc6cd43169123aac389625dc84581899abbf3cf767",
    ),
    "osl-40": (
        _spec6(40, 0.5, 0.25, 7), "osl-pure",
        "c7e9da3d13fa8a8cba7802c0770b32369d76ba10a0af5c2526a5c5f02b116f0c",
    ),
}


def schedule(spec: WorkloadSpec, protocol: str) -> str:
    result = run_workload(build_workload(spec), protocol, seed=spec.seed)
    return canonical_trace(result.trace.events)


def digest(name: str) -> str:
    """Run one point and hash its schedule."""
    spec, protocol, _ = POINTS[name]
    return hashlib.sha256(schedule(spec, protocol).encode()).hexdigest()


@pytest.mark.parametrize("name", POINTS)
def test_schedule_digest_matches_recorded(name):
    assert digest(name) == POINTS[name][2]


def test_digests_do_not_depend_on_what_ran_before():
    for name in reversed(POINTS):
        assert digest(name) == POINTS[name][2], name


def test_a_raised_uid_floor_does_not_change_the_schedule(monkeypatch):
    """What a long-lived or restarted ``repro serve`` does (recovery
    raises the floor past the recovered maximum) to the same
    submissions."""
    spec = WorkloadSpec(n_processes=200, conflict_density=0.6, seed=3)
    # Undone at teardown: the suite's counter resumes where it was.
    monkeypatch.setattr(activity_module, "_activity_ids", itertools.count(1))
    fresh = schedule(spec, "process-locking")
    for floor in (1_000_000, 12_345_678):
        activity_module.ensure_uid_floor(floor)
        assert schedule(spec, "process-locking") == fresh, floor
