"""Resilience-layer overhead guard.

``ManagerConfig(resilience=None)`` — the default — must cost nothing:
every hook site in the manager is a single ``is not None`` test, no RNG
draws, no extra engine events, so the schedule is *byte-identical* to a
build without the subsystem.  That identity is pinned here against a
digest recorded before the layer existed.

An *attached but inert* layer (breakers that can never trip) must also
leave the schedule byte-identical — admission gating admits instantly
when nothing is OPEN and the threshold provider returns the base
``Wcc*`` — while its bookkeeping stays within a bounded constant
factor, recorded to ``BENCH_resilience_overhead.json``.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import repro.activities.activity as _activity_module
import repro.core.locks as _locks_module
from repro.faults.harness import canonical_trace, trace_digest
from repro.resilience import (
    BreakerConfig,
    ResilienceConfig,
    ResilienceLayer,
)
from repro.scheduler.manager import ManagerConfig
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload

BENCH_PATH = (
    Path(__file__).resolve().parent.parent
    / "BENCH_resilience_overhead.json"
)

#: Digest of this benchmark's schedule at the default config (uids
#: renumbered canonically, so the value is floor-independent).  If the
#: default-config run ever drifts from it, a hook leaked into the
#: ``resilience=None`` path.  ``aaba0fa041610606``, recorded on a
#: build *without* the resilience subsystem, held until the restart
#: gate changed when cascade victims come back — a schedule change by
#: design, with which the digest was recorded again.
PINNED_PRE_PR_DIGEST = "992d7d051b3003bf"

#: Fixed uid floor: both paired runs restart the global counters here
#: so their raw traces are byte-comparable within the test.
UID_FLOOR = 777_000_000

#: Contended, failure-bearing point with a finite ``Wcc*`` so the
#: classify path (where the threshold provider hooks in) is hot.
SPEC = WorkloadSpec(
    n_processes=40,
    n_activity_types=18,
    n_subsystems=3,
    conflict_density=0.4,
    arrival_spacing=0.5,
    failure_probability=0.05,
    wcc_threshold=30.0,
    seed=11,
)

#: An attached-but-inert layer may cost at most this factor.  Measured
#: factors sit near 1.0–1.3× (admission checks plus threshold
#: indirection); the ceiling absorbs CI-runner noise.
MAX_INERT_FACTOR = 2.5


def _pin_uid_floor() -> None:
    _activity_module._activity_ids = itertools.count(UID_FLOOR)
    _locks_module._lock_ids = itertools.count(UID_FLOOR)


def _inert_layer() -> ResilienceLayer:
    """A layer whose breakers can never reach OPEN."""
    return ResilienceLayer(
        ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=10**9)
        )
    )


def _timed(resilience=None):
    config = ManagerConfig(resilience=resilience)
    workload = build_workload(SPEC)
    start = time.perf_counter()
    result = run_workload(
        workload, "process-locking", seed=SPEC.seed, config=config
    )
    return result, time.perf_counter() - start


def test_default_config_matches_pre_pr_digest():
    _pin_uid_floor()
    result, _ = _timed()
    digest = trace_digest(result.trace.events)
    assert digest == PINNED_PRE_PR_DIGEST, (
        f"resilience=None schedule drifted from the pre-layer build "
        f"({digest} != {PINNED_PRE_PR_DIGEST}): some hook is live on "
        f"the default path"
    )


def test_inert_layer_is_byte_identical_and_bounded():
    # Warm-up so neither measured run pays first-import costs.
    _pin_uid_floor()
    _timed()

    _pin_uid_floor()
    plain, wall_plain = _timed()
    _pin_uid_floor()
    layer = _inert_layer()
    guarded, wall_guarded = _timed(layer)

    assert canonical_trace(plain.trace.events) == canonical_trace(
        guarded.trace.events
    )
    assert plain.stats.committed == guarded.stats.committed
    assert plain.makespan == guarded.makespan
    # The layer watched the run without shaping it.
    assert layer.stats.admissions_deferred == 0
    assert layer.stats.breaker_opens == 0

    factor = wall_guarded / wall_plain
    BENCH_PATH.write_text(
        json.dumps(
            {
                "description": (
                    "attached-but-inert resilience layer vs the "
                    "resilience=None default on one contended "
                    "workload; schedules asserted byte-identical"
                ),
                "n_processes": SPEC.n_processes,
                "committed": plain.stats.committed,
                "wall_s_default": round(wall_plain, 3),
                "wall_s_inert_layer": round(wall_guarded, 3),
                "inert_overhead_factor": round(factor, 2),
                "max_allowed_factor": MAX_INERT_FACTOR,
                "pinned_pre_pr_digest": PINNED_PRE_PR_DIGEST,
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\nresilience overhead: {factor:.2f}x "
        f"({wall_plain:.3f}s -> {wall_guarded:.3f}s)"
    )
    assert factor < MAX_INERT_FACTOR, (
        f"inert resilience layer costs {factor:.2f}x "
        f"(limit {MAX_INERT_FACTOR}x)"
    )
