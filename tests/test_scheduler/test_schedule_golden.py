"""Golden schedule digests: the refactoring safety net.

Six fixed points whose canonical-trace sha256 was recorded at commit
343d128 (before the lock-table / deadlock-check / Comp-Rule forks were
collapsed).  A digest that moves means a *schedule* changed — a
refactor that claims to be behaviour-preserving is wrong, not slower.

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
        "4d21e5b4bc896ae3f1a48ad154458b84e6fb7d8ed4b525cbadada6fcb9674a51",
    ),
    "pl-80": (
        _spec6(80, 0.5, 0.25, 7), "process-locking", 0, 1,
        "d4be1cc5fa5a351232f63be0530723f5d8b2232f868a4b54eb0ce69aa09d548e",
    ),
    "pl-60-seed3": (
        _spec6(60, 0.6, 0.2, 3), "process-locking", 0, 1,
        "3f19a6d61dbc951e28b852edd72338ec6eca1679a49c68573bc810ff00d19469",
    ),
    "pl-40-parallel": (
        _spec6(40, 0.5, 0.25, 7), "process-locking", 2, 2,
        "4d21e5b4bc896ae3f1a48ad154458b84e6fb7d8ed4b525cbadada6fcb9674a51",
    ),
    "s2pl-40": (
        _spec6(40, 0.5, 0.25, 7), "s2pl", 0, 1,
        "a058aadb54e0dc80245566cf3d9030e89da189b65d185c13811c8aaeb9ae1fd6",
    ),
    "osl-40": (
        _spec6(40, 0.5, 0.25, 7), "osl-pure", 0, 1,
        "3e31055fbba127f87f5b4c9f72f2430c65615d2e6c72861c4f469963d1035508",
    ),
}


def digest(name: str) -> str:
    """Run one point in *this* interpreter and hash its schedule."""
    spec, protocol, workers, batch_k, _ = POINTS[name]
    result = run_workload(
        build_workload(spec),
        protocol,
        seed=spec.seed,
        config=ManagerConfig(
            max_resubmissions=100_000, workers=workers, batch_k=batch_k
        ),
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
