"""Public-API hygiene: exports resolve, and public items are documented."""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.activities",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.faults",
    "repro.obs",
    "repro.process",
    "repro.scheduler",
    "repro.sim",
    "repro.subsystems",
    "repro.theory",
    "repro.workloads",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), (
            f"{package_name}.__all__ lists {name!r} but the attribute "
            "is missing"
        )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_and_functions_documented(package_name):
    module = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name, None)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not inspect.getdoc(item):
                undocumented.append(f"{package_name}.{name}")
    assert not undocumented, (
        "public items without docstrings: "
        + ", ".join(undocumented)
    )


def test_subsystem_health_layer_is_gone():
    """DESIGN.md, "Removed: subsystem-health layer"."""
    from repro.scheduler.manager import ManagerConfig

    with pytest.raises(ImportError):
        importlib.import_module("repro.resilience")
    with pytest.raises(TypeError, match="resilience"):
        ManagerConfig(resilience=None)


def test_wait_for_mirror_is_gone():
    """DESIGN.md, "Removed: incremental wait-for maintainer"."""
    with pytest.raises(ImportError):
        from repro.core import WaitForGraph  # noqa: F401
    with pytest.raises(ImportError):
        from repro.core.deadlock import IncrementalWaitFor  # noqa: F401


def test_thread_per_shard_manager_is_gone():
    """DESIGN.md, "Removed: thread-per-shard manager"."""
    from repro.scheduler.manager import ManagerConfig
    from repro.server.service import ServiceConfig

    with pytest.raises(ImportError):
        importlib.import_module("repro.parallel")
    with pytest.raises(TypeError, match="workers"):
        ManagerConfig(workers=1)
    with pytest.raises(TypeError, match="batch_k"):
        ServiceConfig(batch_k=2)
    # The one name bench/ still passes: no silent sequential fallback.
    assert ServiceConfig(workers=0).workers == 0
    with pytest.raises(ValueError, match="removed"):
        ServiceConfig(workers=2)


def test_helpers_only_their_own_tests_called_are_gone():
    """Helpers nothing but their own unit tests called, and the stamping
    hooks a sink no longer carries (DESIGN.md §7, "Removed: per-sink
    stamping")."""
    import repro.analysis
    import repro.obs
    from repro.obs.tracer import Tracer

    for name in ("Summary", "monotone_decreasing", "save_rows",
                 "speedup", "summarize_sample"):
        assert not hasattr(repro.analysis, name), name
    assert not hasattr(repro.obs, "events_from_records")
    for name in ("bind_clock", "now", "offset", "refresh_gauges"):
        assert not hasattr(Tracer(), name), name


def test_version_is_exported():
    assert repro.__version__


def test_modules_have_docstrings():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        assert module.__doc__, f"{package_name} lacks a module docstring"


def test_protocol_registry_covers_bundled_protocols():
    from repro.sim.runner import PROTOCOL_FACTORIES

    assert {
        "process-locking",
        "process-locking-basic",
        "s2pl",
        "osl-pure",
        "serial",
        "aca",
    } <= set(PROTOCOL_FACTORIES)


def test_error_hierarchy():
    from repro import errors

    roots = [
        errors.ActivityModelError,
        errors.CommutativityError,
        errors.ProcessProgramError,
        errors.ProcessStateError,
        errors.SchedulerError,
        errors.ProtocolError,
        errors.SubsystemError,
        errors.ScheduleError,
    ]
    for exc in roots:
        assert issubclass(exc, errors.ReproError)
    assert issubclass(errors.StarvationError, errors.SchedulerError)
    assert issubclass(
        errors.DataDeadlockAvoided, errors.TransactionAborted
    )
    assert issubclass(errors.UnknownActivityError,
                      errors.ActivityModelError)


def test_subsystem_would_block_carries_holders():
    from repro.errors import SubsystemWouldBlock

    exc = SubsystemWouldBlock(frozenset({3, 1}))
    assert exc.holders == frozenset({1, 3})
    assert "1" in str(exc) and "3" in str(exc)


def test_obs_exports_no_profiler():
    """The simulator-loop phase profiler is gone; ``bench/`` measures."""
    import repro.obs

    assert not [
        name for name in dir(repro.obs) if "profil" in name.lower()
    ]
    with pytest.raises(ImportError):
        importlib.import_module("repro.obs.profiling")
