"""Golden schedule digests: the refactoring safety net.

Six fixed points and the sha256 of their canonical traces.  A digest
that moves means a *schedule* changed — a refactor that claims to be
behaviour-preserving is wrong, not slower.  Recorded at commit 343d128
and unmoved until the restart gate (``ProcessManager._start``) changed
when a cascade victim comes back, which is a schedule change: the six
were recorded again with it, at the default ``ManagerConfig``
(``pl-40-parallel`` still equals ``pl-40``).

Each point runs in a fresh interpreter: activity uids and lock ids come
from module-global counters and their values leak into scheduling via
int-set iteration order, so only a run that starts the counters from
zero is comparable with the recorded one.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scheduler.manager import ManagerConfig
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_parallel.conftest import canonical_trace

ROOT = Path(__file__).resolve().parents[2]


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


#: name -> (spec, protocol, workers, batch_k, recorded digest)
POINTS = {
    "pl-40": (
        _spec6(40, 0.5, 0.25, 7), "process-locking", 0, 1,
        "6ecc6d2b47307db9a2e91e576d13032c340944b0efe7bb45a19335ed4812590b",
    ),
    "pl-80": (
        _spec6(80, 0.5, 0.25, 7), "process-locking", 0, 1,
        "17115fc40ac1aaccc0eeb659605ebfeb392a624352f28ddf331ccca42bb5a67d",
    ),
    "pl-60-seed3": (
        _spec6(60, 0.6, 0.2, 3), "process-locking", 0, 1,
        "7988f1d84d25584e346d3a374b7c1d9b97df7c5d2765a92b484d0943d9977d16",
    ),
    "pl-40-parallel": (
        _spec6(40, 0.5, 0.25, 7), "process-locking", 2, 2,
        "6ecc6d2b47307db9a2e91e576d13032c340944b0efe7bb45a19335ed4812590b",
    ),
    "s2pl-40": (
        _spec6(40, 0.5, 0.25, 7), "s2pl", 0, 1,
        "235ae4bed72605fcc93d5fdc6cd43169123aac389625dc84581899abbf3cf767",
    ),
    "osl-40": (
        _spec6(40, 0.5, 0.25, 7), "osl-pure", 0, 1,
        "92ef2e27a7d449b6be27ae5f9f4ff31488137c19b5a4e76148e9ce20091c6eb8",
    ),
}


def digest(name: str) -> str:
    """Run one point in *this* interpreter and hash its schedule."""
    spec, protocol, workers, batch_k, _ = POINTS[name]
    result = run_workload(
        build_workload(spec),
        protocol,
        seed=spec.seed,
        config=ManagerConfig(workers=workers, batch_k=batch_k),
    )
    return hashlib.sha256(canonical_trace(result).encode()).hexdigest()


@pytest.mark.parametrize("name", POINTS)
def test_schedule_digest_matches_recorded(name):
    src = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from tests.test_scheduler.test_schedule_golden import digest\n"
         "print(digest(sys.argv[1]))",
         name],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == POINTS[name][4]
