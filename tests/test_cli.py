"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "process-locking"
        assert args.processes == 8


class TestCommands:
    def test_exhibits(self, capsys):
        assert main(["exhibits"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Figure 1" in out

    def test_run_with_check(self, capsys):
        code = main(
            ["run", "--processes", "4", "--density", "0.4",
             "--seed", "3", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CT   (Theorem 1): True" in out
        assert "P-RC (Theorem 2): True" in out

    def test_run_with_trace(self, capsys):
        assert main(["run", "--processes", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "observed schedule:" in out

    def test_run_grounded(self, capsys):
        assert main(
            ["run", "--processes", "4", "--grounded", "--check"]
        ) == 0

    def test_compare(self, capsys):
        code = main(
            ["compare", "--processes", "4",
             "--protocols", "serial", "process-locking"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serial" in out
        assert "process-locking" in out

    @pytest.mark.parametrize(
        "name", ["payment", "travel", "hospital", "manufacturing"]
    )
    def test_scenarios(self, name, capsys):
        assert main(["scenario", name]) == 0
        out = capsys.readouterr().out
        assert "CT   (Theorem 1): True" in out

    def test_sweep_threshold(self, capsys):
        code = main(
            ["sweep-threshold", "--processes", "4",
             "--thresholds", "0", "inf"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Wcc* sweep" in out
        assert "inf" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "bogus"])


class TestNewCommands:
    def test_conformance_single(self, capsys):
        assert main(["conformance", "process-locking"]) == 0
        out = capsys.readouterr().out
        assert "conformance report: process-locking" in out
        assert "FAIL" not in out

    def test_conformance_all_protocols(self, capsys):
        assert main(["conformance"]) == 0
        out = capsys.readouterr().out
        assert "osl-pure" in out
        assert "[FAIL] early-verification" in out

    def test_run_json(self, capsys):
        import json

        assert main(["run", "--processes", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["protocol"] == "process-locking"

    def test_run_timeline(self, capsys):
        assert main(["run", "--processes", "3", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out


class TestObservabilityCommands:
    def trace_dir(self, tmp_path, seed="7"):
        out = tmp_path / "trace"
        code = main(
            ["run", "--processes", "8", "--density", "0.6",
             "--seed", seed, "--trace-out", str(out)]
        )
        assert code == 0
        return out

    def test_trace_writes_all_artifacts(self, tmp_path, capsys):
        import json

        out = self.trace_dir(tmp_path)
        printed = capsys.readouterr().out
        assert "trace:" in printed
        assert "deferred processes (most deferred first)" in printed
        assert f" --trace {out}" in printed
        assert "https://ui.perfetto.dev" in printed
        for name in (
            "events.jsonl", "trace.perfetto.json", "waitfor.dot",
            "series.json",
        ):
            assert (out / name).exists()
        trace = json.loads((out / "trace.perfetto.json").read_text())
        assert trace["traceEvents"]

    def test_explain_lists_then_explains(self, tmp_path, capsys):
        out = self.trace_dir(tmp_path)
        capsys.readouterr()
        assert main(["explain", "--trace", str(out)]) == 0
        listing = capsys.readouterr().out
        assert "deferred processes" in listing
        pid = listing.split()[-1]
        assert main(["explain", pid, "--trace", str(out)]) == 0
        account = capsys.readouterr().out
        assert f"P{pid} — causal account" in account
        assert "final outcome:" in account

    def test_explain_missing_trace_exits_2(self, tmp_path, capsys):
        code = main(
            ["explain", "--trace", str(tmp_path / "nowhere")]
        )
        assert code == 2
        assert "no trace at" in capsys.readouterr().err

    def test_explain_unknown_pid_exits_2(self, tmp_path, capsys):
        out = self.trace_dir(tmp_path)
        capsys.readouterr()
        assert main(
            ["explain", "999999", "--trace", str(out)]
        ) == 2
        assert "no events" in capsys.readouterr().err

    def test_compare_json(self, capsys):
        import json

        code = main(
            ["compare", "--processes", "4", "--json",
             "--protocols", "serial", "process-locking"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["protocol"] for row in rows} == {
            "serial", "process-locking"
        }

    def test_run_trace_out(self, tmp_path, capsys):
        out = tmp_path / "run-trace"
        code = main(
            ["run", "--processes", "4", "--seed", "3",
             "--trace-out", str(out)]
        )
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        assert (out / "events.jsonl").exists()

    def test_compare_trace_out_per_protocol(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--processes", "4",
             "--protocols", "serial", "s2pl",
             "--trace-out", str(out)]
        )
        assert code == 0
        for name in ("serial", "s2pl"):
            assert (out / name / "events.jsonl").exists()

    def test_chaos_json_is_machine_readable(self, capsys):
        import json

        code = main(
            ["chaos", "--json", "--protocols", "serial"]
        )
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == (0 if payload["ok"] else 1)
        assert payload["counts"]["runs"] == len(payload["runs"])
        assert payload["counts"]["events"] == sum(
            run["events"] for run in payload["runs"]
        )
        run = payload["runs"][0]
        # Raw booleans, not display strings.
        assert isinstance(run["ok"], bool)
        assert "audited" not in run  # every run checks every step
        assert all(
            isinstance(value, bool)
            for value in run["checks"].values()
        )
        assert "resilience" not in payload
        assert "admissions_deferred" not in payload["counts"]
        assert "admissions_deferred" not in run


class TestServiceCommands:
    def test_config_table(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_* environment knobs" in out
        for env in (
            "REPRO_FLIGHT_EVENTS", "REPRO_FLIGHT_PATH",
            "REPRO_STORE", "REPRO_STORE_PATH", "REPRO_STORE_FSYNC",
        ):
            assert env in out
        # The serve and store-cadence settings are flags and config
        # fields only.
        for env in (
            "REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
            "REPRO_SERVE_BACKLOG", "REPRO_SERVE_METRICS_PORT",
            "REPRO_STORE_SNAPSHOT_EVERY", "REPRO_STORE_SYNC_EVERY",
        ):
            assert env not in out

    def test_removed_env_knobs_change_nothing(self, capsys, monkeypatch):
        """DESIGN.md, "Removed: thread-per-shard manager", "Removed:
        the lock table's shard map" and "Removed: the soak campaign"."""

        def outputs():
            assert main(["config"]) == 0
            assert main(["run", "--processes", "6", "--seed", "1"]) == 0
            return capsys.readouterr().out

        before = outputs()
        for env in (
            "REPRO_WORKERS", "REPRO_BATCH_K", "REPRO_PARALLEL_FANOUT",
            "REPRO_AUDIT_EVERY", "REPRO_SEED_WORKERS",
        ):
            monkeypatch.setenv(env, "2")
            assert env not in before
        assert outputs() == before
        assert before.count("REPRO_") == 1 + 5  # the title and the rows

    def test_config_json_reports_sources(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_FLIGHT_EVENTS", "2")
        monkeypatch.delenv("REPRO_STORE_FSYNC", raising=False)
        assert main(["config", "--json"]) == 0
        rows = {
            row["knob"]: row
            for row in json.loads(capsys.readouterr().out)
        }
        assert len(rows) == 5
        assert not {
            "workers", "batch_k", "parallel_fanout", "audit_every",
            "seed_workers",
        } & set(rows)
        assert rows["flight_events"]["value"] == 2
        assert rows["flight_events"]["source"] == "env"
        assert rows["store_fsync"]["source"] == "default"

    def test_serve_parser_defaults(self):
        from repro.server.service import ServiceConfig

        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 7453)
        # The flags restate the fields' defaults; they must not drift.
        assert args.backlog == ServiceConfig().max_backlog == 256
        assert args.snapshot_every == ServiceConfig().snapshot_every == 48
        assert args.time_scale == 0.0
        assert args.protocol == "process-locking"
        assert args.metrics_port is None

    def test_serve_metrics_port_parses(self):
        args = build_parser().parse_args(
            ["serve", "--metrics-port", "0"]
        )
        assert args.metrics_port == 0

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.host == "127.0.0.1"
        assert args.port == 7453
        assert args.interval == 1.0
        assert args.iterations == 0
        assert args.no_clear is False

    def test_top_unreachable_service_exits_2(self, capsys):
        # Port 1 on localhost is never listening in the test sandbox.
        assert main(
            ["top", "--port", "1", "--iterations", "1"]
        ) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestRenderTop:
    def _bodies(self):
        from repro.obs.metrics import EventMetrics

        m = EventMetrics()
        m.observe_latency(0.02, "committed")
        m.observe_latency(0.08, "committed")
        m.sample_gauges({"locks.bank": 1.0, "locks.shop": 0.0})
        stats = {
            "manager": {
                "submitted": 10, "committed": 8,
                "protocol_aborts": 1, "intrinsic_aborts": 1,
                "cancellations": 0, "resubmissions": 1, "retries": 2,
            },
            "service": {"backlog": 3, "draining": False},
            "engine": {"now": 42.0, "events_processed": 500},
            "bus": {
                "published": 100, "delivered": 50, "dropped": 0,
                "subscribers": 1,
            },
        }
        return stats, {"now": 42.0, "metrics": m.registry.snapshot()}

    def test_frame_shows_throughput_latency_and_shards(self):
        from repro.analysis.top import render_top

        stats, metrics = self._bodies()
        frame = render_top(stats, metrics)
        assert "vt 42.00" in frame
        assert "submitted       10" in frame
        assert "p50" in frame and "(n=2)" in frame
        assert "bank: locks=1   shop: locks=0" in frame
        assert "published      100" in frame

    def test_rates_come_from_successive_polls(self):
        from repro.analysis.top import TopState, render_top

        stats, metrics = self._bodies()
        state = TopState()
        state.committed = 4.0  # previous poll saw 4 commits
        frame = render_top(stats, metrics, state, elapsed=2.0)
        assert "committed        8 (    2.0/s)" in frame
        assert state.committed == 8.0  # advanced for the next poll


class TestErrorHardening:
    def test_malformed_integer_one_line_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "banana"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected an integer, got 'banana'" in err

    def test_negative_port_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "-3"])
        assert excinfo.value.code == 2
        assert "integer >= 0" in capsys.readouterr().err

    def test_zero_audit_cadence_rejected(self, capsys):
        """``soak --audit-every 0`` used to die of a modulo by zero.  No
        cadence and no audit switch can be given now: the lock table
        checks every step it takes, in every run."""
        from repro.scheduler.manager import ManagerConfig

        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--audit-every", "0"])
        assert excinfo.value.code == 2
        assert "--audit-every" in capsys.readouterr().err
        with pytest.raises(TypeError, match="audit"):
            ManagerConfig(audit=True)

    def test_retired_campaign_and_trace_verbs_exit_2(self, capsys):
        """DESIGN.md §7, "Removed: the soak campaign": ``repro chaos``
        is the one campaign and ``run --trace-out`` the one traced
        run."""
        for argv, named in (
            (["soak", "--seed", "7"], "'soak'"),
            (["trace", "--out", "trace-out"], "'trace'"),
            (["chaos", "--quick"], "--quick"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-threshold", "--thresholds", "abc"],
             "expected a number, got 'abc'"),
            (["run", "--threshold", "nan"], "expected a number"),
            (["run", "--threshold", "-1"], "threshold >= 0 or inf"),
            (["run", "--failure-prob", "1.5"], "probability in [0, 1)"),
            (["run", "--processes", "-1"], "integer >= 1, got -1"),
            (["run", "--processes", "0"], "integer >= 1, got 0"),
            (["compare", "--activity-types", "0"], "integer >= 1"),
            (["run", "--density", "2"], "density in [0, 1], got 2"),
            (["serve", "--density", "-0.1"], "density in [0, 1]"),
            (["serve", "--failure-prob", "1"], "probability in [0, 1)"),
            (["serve", "--threshold", "x"], "expected a number"),
            (["serve", "--time-scale", "nan"], "expected a number"),
            (["serve", "--time-scale", "inf"], "finite time scale >= 0"),
            (["serve", "--time-scale", "-1"], "finite time scale >= 0"),
        ],
    )
    def test_workload_flags_are_validated_by_the_parser(
        self, argv, message, capsys
    ):
        """Each used to die in a traceback (rc 1) or, for ``--processes
        -1`` and ``--density 2``, to run and exit 0."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # argparse's usage, then one line naming the flag.
        assert message in err.splitlines()[-1]
        assert argv[1] in err.splitlines()[-1]

    def test_sweep_accepts_inf_and_labels_thresholds(self, capsys):
        code = main(
            ["sweep-threshold", "--processes", "3",
             "--thresholds", "2.5", "inf"]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["2.5", "inf"]

    def test_zero_backlog_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--backlog", "0"])
        assert excinfo.value.code == 2
        assert "integer >= 1" in capsys.readouterr().err

    def test_removed_worker_flags_exit_2(self, capsys):
        for flag in ("--workers", "--batch-k"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", flag, "2"])
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    def test_removed_durability_and_store_flags_exit_2(self, capsys):
        """DESIGN.md §7, "Removed: the sampled durability campaign"."""
        for flag, argv in (
            ("--durability", ["chaos", "--durability"]),
            ("--store", ["store", "verify", "--store", "log"]),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    def test_store_reads_the_log_whatever_repro_store_says(
        self, tmp_path, monkeypatch, capsys
    ):
        """``REPRO_STORE=memory`` used to verify an empty in-memory store
        instead of the files at ``--path``, and pass."""
        from repro.storage import AppendLogBackend
        from tests.test_storage.commit_log import flip_payload_byte

        backend = AppendLogBackend(str(tmp_path), fsync="never")
        backend.append("journal", b'{"kind":"submit","pid":1}')
        backend.close()
        flip_payload_byte(tmp_path, "journal")
        for kind in ("memory", "log"):
            monkeypatch.setenv("REPRO_STORE", kind)
            for action in ("verify", "inspect", "compact"):
                assert main(["store", action, "--path", str(tmp_path)]) == 2
                assert "store corrupt" in capsys.readouterr().err

    def test_store_without_a_directory_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        """It used to verify a fresh temporary directory, pass, and
        leave the directory behind."""
        import tempfile

        monkeypatch.delenv("REPRO_STORE_PATH", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        missing = tmp_path / "missing"
        for extra in ([], ["--path", str(missing)]):
            assert main(["store", "verify", *extra]) == 2
            err = capsys.readouterr().err
            assert "not a store directory" in err
            assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_explain_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "events.jsonl"
        bad.write_text("this is { not jsonl\n")
        assert main(["explain", "1", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unreadable trace" in err
        assert "Traceback" not in err

    def test_removed_profile_verb_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--processes", "8"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "profile" not in capsys.readouterr().out
