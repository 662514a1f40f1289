"""Causal-account replay tests, plus the Figure-1 trace cross-check."""

import math

import pytest

from repro.core.cost_based import Figure1Step, figure1_trace
from repro.core.locks import LockMode
from repro.obs import Tracer, deferred_pids, explain_process
from repro.obs.events import (
    AbortBegun,
    CascadeRequested,
    Holder,
    LockDeferred,
    LockGranted,
    ProcessSubmitted,
)
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload

CONTENDED = WorkloadSpec(
    n_processes=12,
    n_activity_types=6,
    conflict_density=0.6,
    failure_probability=0.05,
    arrival_spacing=0.5,
    seed=7,
)


def figure1_steps_from_trace(
    records: list[dict], pid: int
) -> list[Figure1Step]:
    """Rebuild Figure-1 rows from a run's ``wcc.classify`` trace records.

    The observability layer (:mod:`repro.obs`) stamps every treatment
    decision with the post-charge ``Wcc``; replaying those records
    recovers the same step table :func:`figure1_trace` computes
    symbolically, which cross-checks the live protocol against the
    paper's algorithm.
    """
    steps: list[Figure1Step] = []
    previous = 0.0
    for record in records:
        if record.get("kind") != "wcc.classify":
            continue
        if record["pid"] != pid:
            continue
        steps.append(
            Figure1Step(
                activity=record["activity"],
                wcc_before=previous,
                wcc_after=record["wcc"],
                threshold=record["threshold"],
                treatment=LockMode(record["mode"]),
                pseudo_pivot=record["pseudo_pivot"],
                real_pivot=record["real_pivot"],
            )
        )
        previous = record["wcc"]
    return steps



@pytest.fixture(scope="module")
def records():
    tracer = Tracer()
    run_workload(
        build_workload(CONTENDED), seed=CONTENDED.seed, tracer=tracer
    )
    return tracer.records()


class TestDeferredPids:
    def test_most_deferred_first(self, records):
        pids = deferred_pids(records)
        assert pids, "contended workload produced no deferments"
        counts = {}
        for record in records:
            if record["kind"] == "lock.defer":
                counts[record["pid"]] = counts.get(record["pid"], 0) + 1
        assert set(pids) == set(counts)
        assert [counts[p] for p in pids] == sorted(
            counts.values(), reverse=True
        )


class TestExplain:
    def test_names_blocker_mode_and_rule(self, records):
        # Pick a deferment whose blockers still held locks, so the
        # account must name the holder, its timestamp, and its mode.
        defer = next(
            r
            for r in records
            if r["kind"] == "lock.defer"
            and any(b["modes"] for b in r["blockers"])
        )
        text = explain_process(records, defer["pid"])
        blocker = next(b for b in defer["blockers"] if b["modes"])
        assert f"DEFERRED" in text
        assert f"reason '{defer['reason']}'" in text
        assert f"[{defer['rule']}]" in text
        assert (
            f"P{blocker['pid']} (ts {blocker['timestamp']}) "
            f"holding {blocker['modes']}" in text
        )

    def test_account_is_complete(self, records):
        pid = deferred_pids(records)[0]
        text = explain_process(records, pid)
        assert text.startswith(f"P{pid} — causal account")
        assert "submitted" in text
        assert "initiated with timestamp" in text
        assert "deferments:" in text
        assert "final outcome:" in text
        # Every replayed line carries its virtual-time stamp.
        body = [l for l in text.splitlines() if l.startswith("  vt ")]
        assert len(body) >= 3

    def test_parked_duration_attached(self, records):
        # At least one deferment in a contended run waits a nonzero
        # amount of virtual time and reports it.
        texts = [
            explain_process(records, pid)
            for pid in deferred_pids(records)[:5]
        ]
        assert any("; parked for" in text for text in texts)

    def test_cascade_victims_see_their_killer(self, records):
        cascades = [
            r for r in records if r["kind"] == "lock.cascade"
        ]
        if not cascades:
            pytest.skip("workload produced no cascading aborts")
        victim = cascades[0]["victims"][0]["pid"]
        text = explain_process(records, victim)
        assert "CASCADE-ABORTED by" in text
        assert "lost the timestamp comparison" in text

    def test_a_hold_names_who_it_waited_behind_and_for_how_long(
        self, records
    ):
        """"Why did pid X wait": from ``process.held`` and the
        ``process.resubmit`` that ends the hold."""
        held = next(r for r in records if r["kind"] == "process.held")
        resubmit = next(
            r
            for r in records
            if r["kind"] == "process.resubmit"
            and r["pid"] == held["pid"]
            and r["seq"] > held["seq"]
        )
        assert resubmit["incarnation"] == held["incarnation"]
        older = ", ".join(f"P{pid}" for pid in held["behind"])
        waited = resubmit["t"] - held["t"]
        assert waited > 0
        text = explain_process(records, held["pid"])
        assert f"held behind {older} for {waited:g} vt" in text

    def test_unknown_pid_raises(self, records):
        with pytest.raises(ValueError, match="no events"):
            explain_process(records, 999_999)

    def test_a_deferral_keeps_its_own_park_beside_a_cascade(self):
        """P1's compensation asks for a cascade and, re-asked once P3's
        abort is under way, is deferred at the same instant.  The defer
        line carries its own park (2.5 vt), not the cascade's (0 vt)."""
        request = dict(
            pid=1, incarnation=0, timestamp=1, request="compensation",
            activity="act02^-1", uid=7, mode="C", shard="sub2",
        )
        tracer = Tracer()
        tracer.emit(0, 5.0, ProcessSubmitted(pid=1))
        tracer.emit(
            1, 5.0,
            CascadeRequested(**request, victims=(Holder(3, 3, "C"),)),
        )
        tracer.emit(
            2, 5.0, AbortBegun(pid=3, incarnation=0, cause="cascade")
        )
        tracer.emit(
            3, 5.0,
            LockDeferred(
                **request, reason="wait-aborting", rule="C⁻¹-Rule",
                blockers=(Holder(71, 71, "C"),),
            ),
        )
        tracer.emit(
            4, 7.5,
            LockGranted(
                pid=1, incarnation=0, request="compensation",
                activity="act02^-1", uid=7, mode="C", position=0,
            ),
        )
        text = explain_process(tracer.records(), 1)
        (line,) = [line for line in text.splitlines() if "DEFERRED" in line]
        assert line.endswith("[shard sub2]; parked for 2.5 vt")
        assert "time parked: 2.5 vt" in text


class TestFigure1FromTrace:
    """The live protocol's classifications replay into the same step
    table the paper's Figure-1 algorithm computes symbolically."""

    SPEC = WorkloadSpec(
        n_processes=6,
        n_activity_types=5,
        conflict_density=0.2,
        failure_probability=0.0,
        wcc_threshold=10.0,
        seed=5,
    )

    def test_matches_symbolic_trace(self):
        tracer = Tracer()
        workload = build_workload(self.SPEC)
        run_workload(workload, seed=self.SPEC.seed, tracer=tracer)
        records = tracer.records()
        resubmitted = {
            r["pid"]
            for r in records
            if r["kind"] == "process.resubmit"
        }
        checked = 0
        for pid in sorted(
            {r["pid"] for r in records if r["kind"] == "wcc.classify"}
        ):
            if pid in resubmitted:
                continue  # a resubmission restarts the Wcc accumulator
            replayed = figure1_steps_from_trace(records, pid)
            symbolic = figure1_trace(
                workload.registry,
                [step.activity for step in replayed],
                self.SPEC.wcc_threshold,
            )
            assert len(replayed) == len(symbolic)
            for live, paper in zip(replayed, symbolic):
                assert live.activity == paper.activity
                assert live.treatment is paper.treatment
                assert live.pseudo_pivot == paper.pseudo_pivot
                assert live.real_pivot == paper.real_pivot
                assert live.threshold == paper.threshold
                # The live path charges ``cost + comp`` as one sum, the
                # symbolic path adds them separately — identical up to
                # association order of float addition.
                assert math.isclose(
                    live.wcc_after, paper.wcc_after, rel_tol=1e-9
                )
            checked += 1
        assert checked > 0
