"""The field-plan exporters against the recursive-walk ones they replace.

``export_oracle.py`` keeps the exporters as they were while
``_jsonable`` / ``_restore`` re-walked every record.  On a fixed-seed
run with a finite Wcc* threshold — so ``wcc.classify`` carries finite
and infinite charges — the four artifacts must be byte-identical and
``repro explain`` must tell the same story for every deferred process.
"""

from __future__ import annotations

import math

from repro.obs import (
    Tracer,
    deferred_pids,
    explain_process,
    export_all,
    read_jsonl,
    write_jsonl,
)
from repro.obs.events import ActivityClassified, ActivityStarted
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload
from tests.test_obs import export_oracle

SPEC = WorkloadSpec(
    n_processes=40,
    conflict_density=0.6,
    failure_probability=0.05,
    wcc_threshold=20.0,
    seed=7,
)


def test_artifacts_and_explain_match_the_recursive_walkers(tmp_path):
    tracer = Tracer()
    run_workload(build_workload(SPEC), seed=SPEC.seed, tracer=tracer)
    charges = [
        event.wcc
        for __, __, event in tracer.stamped
        if isinstance(event, ActivityClassified)
    ]
    assert any(math.isinf(wcc) for wcc in charges)
    assert any(math.isfinite(wcc) for wcc in charges)

    ours = export_all(tracer, tmp_path / "ours")
    theirs = export_oracle.export_all(tracer, tmp_path / "theirs")
    assert ours.keys() == theirs.keys()
    for name, path in ours.items():
        assert path.read_bytes() == theirs[name].read_bytes(), name

    records = read_jsonl(ours["events"])
    oracle_records = export_oracle.read_jsonl(theirs["events"])
    pids = deferred_pids(records)
    assert pids and pids == deferred_pids(oracle_records)
    for pid in pids:
        assert explain_process(records, pid) == explain_process(
            oracle_records, pid
        )


def test_a_name_spelled_like_a_non_finite_float_stays_a_string(tmp_path):
    """Only the fields that may hold a non-finite float are read back
    as numbers; the recursive ``_restore`` turned every such string
    into a float."""
    tracer = Tracer()
    tracer.emit(0, 1.0, ActivityStarted(1, 0, "NaN", 5))
    tracer.emit(1, 2.0, ActivityClassified(
        1, 0, "Infinity", "C", math.inf, math.inf, False, False
    ))
    path = write_jsonl(tracer.records(), tmp_path / "events.jsonl")
    started, classified = read_jsonl(path)
    assert started["activity"] == "NaN"
    assert classified["activity"] == "Infinity"
    assert classified["wcc"] == classified["threshold"] == math.inf
    assert math.isnan(export_oracle.read_jsonl(path)[0]["activity"])
