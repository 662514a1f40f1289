"""Tests for the consolidated REPRO_* knob registry."""

import pytest

from repro import config as repro_config


class TestResolution:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_EVENTS", raising=False)
        assert repro_config.flight_events() == 512
        assert repro_config.source("flight_events") == "default"

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_EVENTS", "3")
        assert repro_config.flight_events() == 3
        assert repro_config.source("flight_events") == "env"

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_EVENTS", "3")
        assert repro_config.flight_events(5) == 5
        assert repro_config.source("flight_events", 5) == "override"

    def test_floor_clamps_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_EVENTS", "-4")
        assert repro_config.flight_events() == 1
        assert repro_config.flight_events(-2) == 1

    def test_empty_variable_is_unset(self, monkeypatch, tmp_path):
        """An exported-but-empty ``REPRO_STORE_FSYNC=`` used to reach the
        store as the fsync policy ``''`` and fail its open."""
        monkeypatch.setenv("REPRO_STORE_FSYNC", "")
        assert repro_config.store_fsync() == "batch"
        assert repro_config.source("store_fsync") == "default"
        from repro.storage import Store

        Store.open("log", str(tmp_path)).close()
        for knob in repro_config.KNOBS.values():
            monkeypatch.setenv(knob.env, "")
            assert repro_config.resolve(knob.name) == knob.default
            assert repro_config.source(knob.name) == "default"

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            repro_config.resolve("no-such-knob")


class TestServeKnobs:
    """The serve and store-cadence settings have no env spelling: the
    default lives on the argument or field that uses it."""

    GONE = (
        "REPRO_SERVE_HOST",
        "REPRO_SERVE_PORT",
        "REPRO_SERVE_BACKLOG",
        "REPRO_SERVE_METRICS_PORT",
        "REPRO_STORE_SNAPSHOT_EVERY",
        "REPRO_STORE_SYNC_EVERY",
    )

    @pytest.fixture(autouse=True)
    def _set_them_all(self, monkeypatch):
        for env in self.GONE:
            monkeypatch.setenv(env, "9")

    def test_host_is_string(self):
        import inspect

        from repro.server.net import run_server, serve

        for entry in (run_server, serve):
            defaults = inspect.signature(entry).parameters
            assert defaults["host"].default == "127.0.0.1"
            assert defaults["port"].default == 7453
            assert defaults["metrics_port"].default is None

    def test_port_and_backlog(self, tmp_path):
        from repro.server.service import ServiceConfig
        from repro.storage import PersistencePlane, Store

        config = ServiceConfig()
        assert config.max_backlog == 256
        assert config.snapshot_every == 48
        assert config.store_sync_every == 64
        store = Store.open("log", str(tmp_path))
        try:
            assert store.backend.sync_every == 64
            assert PersistencePlane(store, []).snapshot_every == 48
        finally:
            store.close()

    def test_table_has_five_knobs_and_none_of_the_six(self):
        envs = {knob.env for knob in repro_config.KNOBS.values()}
        assert len(envs) == 5
        assert not envs & set(self.GONE)


class TestDescribe:
    def test_every_knob_described(self):
        rows = repro_config.describe()
        names = {row["knob"] for row in rows}
        assert names == set(repro_config.KNOBS)
        for row in rows:
            assert row["source"] in ("default", "env")
            assert row["description"]
            assert row["env"].startswith("REPRO_")


class TestConsumers:
    """The historical inline readers now route through the registry."""

    def test_manager_config_defaults_from_env(self, monkeypatch, tmp_path):
        """An unset ``ManagerConfig.store`` defers to ``REPRO_STORE``."""
        from repro.scheduler.manager import make_manager
        from repro.sim.runner import make_protocol
        from repro.sim.workload import WorkloadSpec, build_workload

        monkeypatch.setenv("REPRO_STORE", "log")
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path))
        workload = build_workload(
            WorkloadSpec(n_processes=2, grounded=True, seed=1)
        )
        pool = workload.make_subsystems()
        make_manager(
            make_protocol("process-locking", workload), subsystems=pool
        )
        assert pool.store is not None


def test_removed_incremental_deadlock_is_a_type_error():
    from repro.scheduler.manager import ManagerConfig

    with pytest.raises(TypeError, match="incremental_deadlock"):
        ManagerConfig(incremental_deadlock=False)


def test_removed_sqlite_store_flag_exits_2(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--store", "sqlite"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert "sqlite" in error and "'log'" in error
