"""Unit tests for the recording tracer and the series bank."""

from repro.obs import MetricsTracer, Tracer
from repro.obs.events import (
    EVENT_TYPES,
    ActivityClassified,
    CascadeRequested,
    FaultInjected,
    Holder,
    LockDeferred,
    ProcessSubmitted,
    event_payload,
    rule_for_reason,
)
from repro.obs.series import SeriesBank


def defer_event(pid=1, reason="other-p-holder", activity="reserve"):
    return LockDeferred(
        pid=pid,
        incarnation=0,
        timestamp=pid,
        request="regular",
        activity=activity,
        uid=7,
        mode="C",
        reason=reason,
        rule=rule_for_reason(reason),
        blockers=(Holder(pid=2, timestamp=0, modes="P"),),
    )


class TestStamping:
    def test_seq_monotone_and_clock_applied(self):
        """The fold stamps; its sink keeps the stamp it was handed."""
        tracer = Tracer()
        fold = MetricsTracer(sinks=(tracer,))
        clock = iter([1.0, 2.5, 2.5])
        fold.bind_clock(lambda: next(clock))
        for pid in range(3):
            fold.emit(ProcessSubmitted(pid=pid))
        assert [seq for seq, __, __ in tracer.stamped] == [0, 1, 2]
        assert [t for __, t, __ in tracer.stamped] == [1.0, 2.5, 2.5]
        assert len(tracer) == 3

    def test_offset_shifts_stamps(self):
        tracer = Tracer()
        fold = MetricsTracer(sinks=(tracer,))
        fold.bind_clock(lambda: 5.0)
        fold.emit(ProcessSubmitted(pid=1))
        fold.offset = 100.0
        fold.emit(ProcessSubmitted(pid=2))
        assert [t for __, t, __ in tracer.stamped] == [5.0, 105.0]

    def test_records_are_flat_dicts(self):
        tracer = Tracer()
        tracer.emit(0, 0.0, defer_event())
        (record,) = tracer.records()
        assert record["kind"] == "lock.defer"
        assert record["seq"] == 0
        assert record["t"] == 0.0
        assert record["reason"] == "other-p-holder"
        assert record["rule"] == "Piv-Rule (literal P-lock deferment)"
        assert record["blockers"][0]["modes"] == "P"

    def test_every_record_of_a_contended_run_keeps_its_stamp(self):
        """Parks included: a park is its ``lock.defer`` or
        ``lock.cascade``, which carries no sequence of its own."""
        from repro.sim.runner import run_workload
        from repro.sim.workload import WorkloadSpec, build_workload

        tracer = Tracer()
        run_workload(
            build_workload(
                WorkloadSpec(n_processes=12, conflict_density=0.6, seed=3)
            ),
            seed=3,
            tracer=tracer,
        )
        records = tracer.records()
        assert any(r["kind"] == "lock.defer" for r in records)
        assert not any("park" in r for r in records)
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_a_field_named_like_a_stamp_is_rejected(self):
        from dataclasses import make_dataclass

        import pytest

        from repro.obs.events import STAMP_KEYS, _field_plan

        for name in STAMP_KEYS:
            with pytest.raises(TypeError, match=name):
                _field_plan(make_dataclass("Shadowing", [(name, "int")]))


class TestSeries:
    def test_defer_bumps_histograms(self):
        tracer = Tracer()
        tracer.emit(0, 0.0, defer_event(reason="other-p-holder"))
        tracer.emit(1, 0.0, defer_event(reason="other-p-holder"))
        tracer.emit(
            2, 0.0, defer_event(reason="piv-rule-defer", activity="wrap")
        )
        hist = tracer.series.histograms
        assert hist["defer_reasons"] == {
            "other-p-holder": 2,
            "piv-rule-defer": 1,
        }
        assert hist["conflicts_by_type"] == {"reserve": 2, "wrap": 1}

    def test_cascade_counts_victims(self):
        tracer = Tracer()
        tracer.emit(
            0,
            0.0,
            CascadeRequested(
                pid=1,
                incarnation=0,
                timestamp=1,
                request="regular",
                activity="reserve",
                uid=3,
                mode="C",
                victims=(
                    Holder(pid=2, timestamp=5),
                    Holder(pid=3, timestamp=6),
                ),
            ),
        )
        hist = tracer.series.histograms
        assert hist["conflicts_by_type"] == {"reserve": 2}
        assert hist["cascades_by_type"] == {"reserve": 1}

    def test_classify_records_wcc_gauge(self):
        tracer = Tracer()
        tracer.emit(
            0,
            4.0,
            ActivityClassified(
                pid=9,
                incarnation=0,
                activity="reserve",
                mode="C",
                wcc=3.0,
                threshold=20.0,
                pseudo_pivot=False,
                real_pivot=False,
            ),
        )
        assert tracer.series.gauges["wcc/P9"].points == [(4.0, 3.0)]

    def test_sampler_polled_on_every_emit(self):
        tracer = Tracer()
        parked = iter([0.0, 2.0, 2.0])
        tracer.bind_sampler(lambda: {"parked": next(parked)})
        for pid in range(3):
            tracer.emit(pid, 0.0, ProcessSubmitted(pid=pid))
        # Consecutive equal samples deduplicate to one point per change.
        assert tracer.series.gauges["parked"].points == [
            (0.0, 0.0),
            (0.0, 2.0),
        ]


class TestSeriesBank:
    def test_gauge_dedup_and_peak(self):
        bank = SeriesBank()
        bank.gauge("depth", 0.0, 1.0)
        bank.gauge("depth", 1.0, 1.0)
        bank.gauge("depth", 2.0, 4.0)
        series = bank.gauges["depth"]
        assert series.points == [(0.0, 1.0), (2.0, 4.0)]
        assert max(value for __, value in series.points) == 4.0
        assert series.last == 4.0

    def test_to_dict_is_sorted_and_json_shaped(self):
        bank = SeriesBank()
        bank.gauge("b", 0.0, 1.0)
        bank.gauge("a", 0.0, 2.0)
        bank.bump("h", "y")
        bank.bump("h", "x", 3)
        data = bank.to_dict()
        assert list(data["gauges"]) == ["a", "b"]
        assert data["histograms"]["h"] == {"x": 3, "y": 1}


class TestEventContracts:
    def test_registry_covers_every_kind(self):
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind

    def test_payload_excludes_kind_tag(self):
        # ``kind`` is a class attribute, not a dataclass field, so the
        # stamp layer owns the single copy written per record.
        assert event_payload(ProcessSubmitted(pid=4)) == {"pid": 4}

    def test_rules_map_to_paper_names(self):
        assert rule_for_reason("younger-completing-or-p-holder") == (
            "Comp-Rule"
        )
        assert rule_for_reason("commit-on-hold") == (
            "Commit-Rule (lock on hold)"
        )
        assert (
            rule_for_reason("compensation-blocked-by-completing")
            == "C⁻¹-Rule"
        )
        # Unknown tags fall back to themselves, never raise.
        assert rule_for_reason("never-seen") == "never-seen"

    def test_fault_event_detail_defaults(self):
        event = FaultInjected(channel="outage")
        payload = event_payload(event)
        assert payload == {
            "channel": "outage",
            "pid": None,
            "activity": None,
            "detail": {},
        }
