"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro exhibits
    python -m repro run --processes 12 --density 0.4 --check
    python -m repro compare --protocols serial s2pl process-locking
    python -m repro scenario hospital --protocol process-locking
    python -m repro sweep-threshold --thresholds 0 10 40 inf
    python -m repro run --seed 7 --trace-out trace-out
    python -m repro explain 12 --trace trace-out

Every command prints plain-text tables (see
:mod:`repro.analysis.tables`) and exits non-zero if a requested
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence

from repro import config as repro_config
from repro.analysis.exhibits import all_exhibits_text
from repro.analysis.export import rows_to_json
from repro.analysis.tables import render_dict_table
from repro.analysis.timeline import render_timeline
from repro.core.conformance import run_conformance
from repro.scheduler.manager import make_manager
from repro.sim.metrics import summarize
from repro.sim.runner import (
    PROTOCOL_FACTORIES,
    make_protocol,
    run_workload,
    schedule_of,
)
from repro.sim.workload import WorkloadSpec, build_workload
from repro.workloads import (
    hospital_scenario,
    manufacturing_scenario,
    payment_scenario,
    travel_scenario,
)

SCENARIOS = {
    "payment": payment_scenario,
    "travel": travel_scenario,
    "hospital": hospital_scenario,
    "manufacturing": manufacturing_scenario,
}


def _int_at_least(raw: str, floor: int) -> int:
    """argparse helper: an integer >= ``floor``, with a one-line error."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {raw!r}"
        ) from None
    if value < floor:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {floor}, got {value}"
        )
    return value


def _nonneg_int(raw: str) -> int:
    """argparse type: an integer >= 0."""
    return _int_at_least(raw, 0)


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1."""
    return _int_at_least(raw, 1)


def _number(raw: str) -> float:
    """argparse helper: a float (``inf`` allowed, NaN not)."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}")
    return value


def _density(raw: str) -> float:
    """argparse type: a conflict density in [0, 1]."""
    value = _number(raw)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a density in [0, 1], got {value:g}"
        )
    return value


def _failure_prob(raw: str) -> float:
    """argparse type: a failure probability in [0, 1)."""
    value = _number(raw)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a probability in [0, 1), got {value:g}"
        )
    return value


def _threshold(raw: str) -> float:
    """argparse type: a ``Wcc*`` threshold, a number >= 0 or ``inf``."""
    value = _number(raw)
    if value < 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a threshold >= 0 or inf, got {value:g}"
        )
    return value


def _time_scale(raw: str) -> float:
    """argparse type: virtual-time units per wall second, finite, >= 0."""
    value = _number(raw)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite time scale >= 0, got {value:g}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Process locking (PODS 2001) — run exhibits, workloads, "
            "and protocol comparisons"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "exhibits",
        help="regenerate the paper's exhibits (Tables 1-2, Figure 1)",
    )

    run = sub.add_parser(
        "run", help="run a synthetic workload under one protocol"
    )
    _add_workload_args(run)
    run.add_argument(
        "--protocol",
        default="process-locking",
        choices=sorted(PROTOCOL_FACTORIES),
    )
    run.add_argument(
        "--check",
        action="store_true",
        help="verify CT and P-RC on the observed schedule",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="print the observed schedule",
    )
    run.add_argument(
        "--timeline",
        action="store_true",
        help="print an ASCII per-process timeline of the schedule",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics row as JSON instead of a table",
    )

    compare = sub.add_parser(
        "compare", help="run one workload under several protocols"
    )
    _add_workload_args(compare)
    compare.add_argument(
        "--protocols",
        nargs="+",
        default=["serial", "s2pl", "osl-pure", "process-locking"],
        choices=sorted(PROTOCOL_FACTORIES),
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the metric rows as JSON instead of a table",
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "replay a JSONL trace into a causal account of one "
            "process (why it deferred, who aborted it, how it ended)"
        ),
    )
    explain.add_argument(
        "pid",
        type=int,
        nargs="?",
        default=None,
        help=(
            "process id to explain; omitted, lists the deferred "
            "processes most-deferred first"
        ),
    )
    explain.add_argument(
        "--trace",
        default="trace-out",
        help=(
            "trace to read: an events.jsonl file or the directory "
            "containing it (default: trace-out)"
        ),
    )

    scenario = sub.add_parser(
        "scenario", help="run a domain scenario end to end"
    )
    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.add_argument(
        "--protocol",
        default="process-locking",
        choices=sorted(PROTOCOL_FACTORIES),
    )
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="trace the run and write the export artifacts to DIR",
    )

    conformance = sub.add_parser(
        "conformance",
        help="run the rule-conformance checklist against a protocol",
    )
    conformance.add_argument(
        "protocol",
        nargs="?",
        default=None,
        choices=sorted(PROTOCOL_FACTORIES),
        help="protocol to check (default: all)",
    )

    sweep = sub.add_parser(
        "sweep-threshold",
        help="cost-threshold sweep (the Section-4 spectrum)",
    )
    _add_workload_args(sweep)
    sweep.add_argument(
        "--thresholds",
        nargs="+",
        type=_threshold,
        default=[0.0, 10.0, 40.0, math.inf],
        help="Wcc* values ('inf' allowed)",
    )

    chaos = sub.add_parser(
        "chaos",
        help=(
            "deterministic fault-injection campaign (workloads × plans "
            "× protocols), every lock-table step checked, asserting "
            "termination, CT, P-RC, trace splicing, and WAL recovery "
            "per run"
        ),
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--protocols",
        nargs="+",
        default=None,
        choices=sorted(PROTOCOL_FACTORIES),
        help="protocols to sweep (default: the CT-guaranteeing set)",
    )
    chaos.add_argument(
        "--verbose",
        action="store_true",
        help="print the per-run table even when everything passes",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit per-run rows as JSON instead of tables",
    )
    chaos.add_argument(
        "--dump-schedules",
        action="store_true",
        help="print each plan's compiled fault schedule (canonical form)",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the process-locking service: a JSON-lines TCP front "
            "door for SUBMIT/STATUS/CANCEL/SUBSCRIBE/STATS/CHECK/DRAIN "
            "(see docs/service.md)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=_nonneg_int,
        default=7453,
        help="TCP port, 0 = ephemeral (default: 7453)",
    )
    serve.add_argument(
        "--protocol",
        default="process-locking",
        choices=sorted(PROTOCOL_FACTORIES),
    )
    serve.add_argument(
        "--processes",
        type=_positive_int,
        default=8,
        help="catalog size: programs clients can SUBMIT by index",
    )
    serve.add_argument("--density", type=_density, default=0.3)
    serve.add_argument("--failure-prob", type=_failure_prob, default=0.05)
    serve.add_argument("--threshold", type=_threshold, default=math.inf)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--time-scale",
        type=_time_scale,
        default=0.0,
        help=(
            "virtual-time units per wall second; 0 (default) drains "
            "eagerly after each command batch (deterministic), > 0 "
            "paces the simulation against the wall clock"
        ),
    )
    serve.add_argument(
        "--backlog",
        type=_positive_int,
        default=256,
        help=(
            "submission backlog before SUBMITs are shed at the socket "
            "(default: 256)"
        ),
    )
    serve.add_argument(
        "--metrics-port",
        type=_nonneg_int,
        default=None,
        help=(
            "HTTP /metrics sidecar port, 0 = ephemeral (default: "
            "no sidecar)"
        ),
    )
    serve.add_argument(
        "--store",
        default=None,
        choices=("log",),
        help=(
            "durable persistence backend; submissions and outcomes "
            "survive kill -9 and replay on restart (default: "
            "REPRO_STORE; unset = in-memory only)"
        ),
    )
    serve.add_argument(
        "--store-path",
        default=None,
        metavar="DIR",
        help=(
            "store directory (default: REPRO_STORE_PATH, else a "
            "fresh temporary directory)"
        ),
    )
    serve.add_argument(
        "--store-fsync",
        default=None,
        choices=("always", "batch", "never"),
        help="fsync policy (default: REPRO_STORE_FSYNC, batch)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=48,
        help=(
            "submissions, cancels and outcomes between snapshots, "
            "journaled or not (default: 48, two per process: about 24 "
            "processes)"
        ),
    )

    store = sub.add_parser(
        "store",
        help=(
            "inspect, verify, or compact a durable store written by "
            "`repro serve --store` (see docs/persistence.md)"
        ),
    )
    store.add_argument(
        "action",
        choices=("inspect", "verify", "compact"),
        help=(
            "inspect = summarize meta/journal/snapshot/subsystems; "
            "verify = walk every frame, exit 2 on corruption; "
            "compact = drop records recovery can no longer need"
        ),
    )
    store.add_argument(
        "--path",
        default=None,
        metavar="DIR",
        help="store directory (default: REPRO_STORE_PATH)",
    )
    store.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )

    top = sub.add_parser(
        "top",
        help=(
            "live terminal dashboard for a running `repro serve`: "
            "polls stats + metrics over the wire protocol"
        ),
    )
    top.add_argument(
        "--host",
        default="127.0.0.1",
        help="service address (default: 127.0.0.1)",
    )
    top.add_argument(
        "--port",
        type=_nonneg_int,
        default=7453,
        help="service TCP port (default: 7453)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between polls (default: 1.0)",
    )
    top.add_argument(
        "--iterations",
        type=_nonneg_int,
        default=0,
        help="frames to render before exiting (0 = until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing in place",
    )

    config = sub.add_parser(
        "config",
        help=(
            "show every REPRO_* knob: effective value, origin "
            "(override/env/default), and what it does"
        ),
    )
    config.add_argument(
        "--json",
        action="store_true",
        help="emit the knob table as JSON instead of text",
    )
    return parser


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """Workload parameters shared by every workload-driven subcommand.

    Defined once so `run`, `compare` and `sweep-threshold` cannot drift
    apart in their defaults or in what they accept.
    """
    parser.add_argument("--processes", type=_positive_int, default=8)
    parser.add_argument("--activity-types", type=_positive_int, default=12)
    parser.add_argument("--density", type=_density, default=0.3)
    parser.add_argument("--failure-prob", type=_failure_prob, default=0.05)
    parser.add_argument("--threshold", type=_threshold, default=math.inf)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--grounded",
        action="store_true",
        help="back activities with real subsystem transaction programs",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help=(
            "enable decision-level tracing and write the export "
            "artifacts (events.jsonl, trace.perfetto.json, "
            "waitfor.dot, series.json) to DIR"
        ),
    )


def _make_tracer(args: argparse.Namespace):
    """A live tracer when ``--trace-out`` was given, else ``None``."""
    if getattr(args, "trace_out", None) is None:
        return None
    from repro.obs import Tracer

    return Tracer()


def _export_trace(tracer, out_dir: str) -> None:
    if tracer is None:
        return
    from repro.obs import export_all
    from repro.obs.explain import rank_deferred

    paths = export_all(tracer, out_dir)
    names = ", ".join(path.name for path in paths.values())
    print(f"trace: {len(tracer)} events -> {out_dir}/ ({names})")
    pids = rank_deferred(
        event.pid
        for _, _, event in tracer.stamped
        if event.kind == "lock.defer"
    )
    if pids:
        shown = ", ".join(f"P{pid}" for pid in pids[:8])
        print(
            f"deferred processes (most deferred first): {shown}\n"
            f"inspect one with: repro explain {pids[0]} --trace {out_dir}"
        )
    print(f"open {out_dir}/trace.perfetto.json at https://ui.perfetto.dev")


def _spec_from(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        n_processes=args.processes,
        n_activity_types=args.activity_types,
        conflict_density=args.density,
        failure_probability=args.failure_prob,
        wcc_threshold=args.threshold,
        grounded=args.grounded,
        seed=args.seed,
    )


def _metrics_rows(named_metrics) -> str:
    return render_dict_table([m.as_row() for m in named_metrics])


def cmd_exhibits(args: argparse.Namespace) -> int:
    print(all_exhibits_text())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = build_workload(_spec_from(args))
    tracer = _make_tracer(args)
    result = run_workload(
        workload, args.protocol, seed=args.seed, tracer=tracer
    )
    metrics = summarize(args.protocol, result)
    if args.json:
        print(rows_to_json([metrics]))
    else:
        print(_metrics_rows([metrics]))
    _export_trace(tracer, args.trace_out)
    if args.timeline:
        print()
        print(render_timeline(schedule_of(workload, result)))
    if args.trace:
        print()
        print("observed schedule:")
        print(" ", " ".join(str(e) for e in result.trace.events))
    if args.check:
        verdict = result.trace.verdict
        ct = verdict.correct_termination
        prc = verdict.process_recoverable
        print()
        print(f"CT   (Theorem 1): {ct}")
        print(f"P-RC (Theorem 2): {prc}")
        if not (ct and prc):
            return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = build_workload(_spec_from(args))
    metrics = []
    for name in args.protocols:
        tracer = _make_tracer(args)
        result = run_workload(
            workload, name, seed=args.seed, tracer=tracer,
        )
        metrics.append(summarize(name, result))
        if tracer is not None:
            _export_trace(tracer, f"{args.trace_out}/{name}")
    if args.json:
        print(rows_to_json(metrics))
    else:
        print(_metrics_rows(metrics))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.name]()
    factory = PROTOCOL_FACTORIES[args.protocol]
    protocol = factory(scenario.registry, scenario.conflicts)
    tracer = _make_tracer(args)
    manager = make_manager(
        protocol,
        subsystems=scenario.make_subsystems(),
        seed=args.seed,
        tracer=tracer,
    )
    for program in scenario.programs:
        manager.submit(program)
    result = manager.run()
    print(f"scenario: {scenario.name} under {args.protocol}")
    print(_metrics_rows([summarize(args.protocol, result)]))
    _export_trace(tracer, args.trace_out)
    verdict = result.trace.verdict
    print()
    print(f"CT   (Theorem 1): {verdict.correct_termination}")
    print(f"P-RC (Theorem 2): {verdict.process_recoverable}")
    return 0


def cmd_sweep_threshold(args: argparse.Namespace) -> int:
    rows = []
    for threshold in args.thresholds:
        label = f"{threshold:g}"
        spec = _spec_from(args).with_(wcc_threshold=threshold)
        workload = build_workload(spec)
        tracer = _make_tracer(args)
        result = run_workload(
            workload, "process-locking", seed=args.seed, tracer=tracer,
        )
        if tracer is not None:
            _export_trace(tracer, f"{args.trace_out}/wcc-{label}")
        metrics = summarize("process-locking", result)
        rows.append(
            {
                "Wcc*": label,
                "committed": metrics.committed,
                "cascades": metrics.cascade_victims,
                "comp_cost": round(metrics.compensated_cost, 1),
                "concurrency": round(metrics.mean_concurrency, 2),
                "makespan": round(metrics.makespan, 1),
            }
        )
    print(render_dict_table(rows, title="Wcc* sweep"))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import deferred_pids, explain_process, read_jsonl

    source = Path(args.trace)
    if source.is_dir():
        source = source / "events.jsonl"
    if not source.exists():
        print(
            f"no trace at {source}; produce one with any workload "
            f"command's --trace-out DIR",
            file=sys.stderr,
        )
        return 2
    try:
        records = read_jsonl(source)
    except (OSError, UnicodeDecodeError, ValueError) as error:
        print(f"unreadable trace {source}: {error}", file=sys.stderr)
        return 2
    if args.pid is None:
        pids = deferred_pids(records)
        if not pids:
            print("no deferred processes in this trace")
            return 0
        print("deferred processes (most deferred first):")
        for pid in pids:
            print(f"  {pid}")
        return 0
    try:
        print(explain_process(records, args.pid))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.faults import campaign_json, render_campaign
    from repro.faults import run_campaign

    report = run_campaign(
        seed=args.seed,
        protocols=tuple(args.protocols) if args.protocols else None,
    )
    if args.json:
        print(json.dumps(campaign_json(report), indent=2))
    else:
        print(render_campaign(report, verbose=args.verbose))
    if args.dump_schedules:
        printed: set[str] = set()
        print()
        for run in report.runs:
            # A storm is aimed per workload, so one plan name may
            # compile to several schedules.
            if run.schedule_canonical in printed:
                continue
            printed.add(run.schedule_canonical)
            print(f"{run.plan}: {run.schedule_canonical}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.net import run_server
    from repro.server.service import ServiceConfig

    spec = WorkloadSpec(
        n_processes=args.processes,
        conflict_density=args.density,
        failure_probability=args.failure_prob,
        wcc_threshold=args.threshold,
        seed=args.seed,
    )
    service_config = ServiceConfig(
        protocol=args.protocol,
        spec=spec,
        seed=args.seed,
        max_backlog=args.backlog,
        time_scale=args.time_scale,
        store=args.store,
        store_path=args.store_path,
        store_fsync=args.store_fsync,
        snapshot_every=args.snapshot_every,
    )
    run_server(
        service_config,
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
    )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    from repro.errors import StorageError, WalCorruptionError
    from repro.storage import Store

    # Only the log backend has files to read: whatever REPRO_STORE says,
    # this is the one opened, and only on a directory that exists.
    path = repro_config.store_path(args.path)
    if path is None or not os.path.isdir(path):
        print(
            f"not a store directory: {path or 'none given'} "
            "(pass --path DIR or set REPRO_STORE_PATH)",
            file=sys.stderr,
        )
        return 2
    try:
        store = Store.open("log", path)
    except WalCorruptionError as error:
        print(f"store corrupt: {error}", file=sys.stderr)
        return 2
    except (StorageError, OSError) as error:
        print(f"cannot open store: {error}", file=sys.stderr)
        return 2
    try:
        if args.action == "verify":
            report = store.verify()
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                for name in sorted(report["namespaces"]):
                    entry = report["namespaces"][name]
                    status = entry["error"] or "ok"
                    print(
                        f"{name}: {entry['records']} records"
                        f" [{status}]"
                    )
                for name, dropped in sorted(
                    report["healed"].items()
                ):
                    print(f"healed torn tail: {name} -{dropped}B")
            return 0 if report["ok"] else 2
        if args.action == "compact":
            report = store.compact()
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                for name, row in sorted(report.items()):
                    print(f"{name}: {row}")
            return 0
        print(json.dumps(store.describe(), indent=2))
        return 0
    except WalCorruptionError as error:
        print(f"store corrupt: {error}", file=sys.stderr)
        return 2
    except StorageError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 2
    finally:
        store.close()


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.top import TopState, render_top
    from repro.client import ServiceClient

    try:
        client = ServiceClient(args.host, args.port)
    except OSError as error:
        print(
            f"cannot reach {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    state = TopState()
    frames = 0
    last_poll: float | None = None
    try:
        with client:
            while True:
                now = time.monotonic()
                elapsed = 0.0 if last_poll is None else now - last_poll
                stats = client.stats()
                metrics = client.metrics()
                frame = render_top(
                    stats,
                    metrics,
                    state if last_poll is not None else None,
                    elapsed,
                )
                if last_poll is None:
                    # Prime the rate baseline on the first poll.
                    state.committed = float(
                        stats["manager"].get("committed", 0)
                    )
                    state.submitted = float(
                        stats["manager"].get("submitted", 0)
                    )
                    state.events = float(
                        stats["engine"].get("events_processed", 0)
                    )
                last_poll = now
                if not args.no_clear and sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                frames += 1
                if args.iterations and frames >= args.iterations:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except (ConnectionError, OSError) as error:
        print(f"connection lost: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_config(args: argparse.Namespace) -> int:
    rows = repro_config.describe()
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(
            render_dict_table(
                rows, title="REPRO_* environment knobs"
            )
        )
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    names = (
        [args.protocol]
        if args.protocol is not None
        else sorted(PROTOCOL_FACTORIES)
    )
    fully = True
    for name in names:
        factory = PROTOCOL_FACTORIES[name]
        report = run_conformance(factory, name)
        print(report.describe())
        print()
        if name.startswith("process-locking"):
            fully = fully and report.fully_conformant
    return 0 if fully else 1


_COMMANDS = {
    "exhibits": cmd_exhibits,
    "chaos": cmd_chaos,
    "conformance": cmd_conformance,
    "run": cmd_run,
    "compare": cmd_compare,
    "explain": cmd_explain,
    "scenario": cmd_scenario,
    "sweep-threshold": cmd_sweep_threshold,
    "serve": cmd_serve,
    "store": cmd_store,
    "top": cmd_top,
    "config": cmd_config,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; reopen
        # stdout on devnull so interpreter shutdown doesn't warn.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
