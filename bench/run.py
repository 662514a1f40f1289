"""The benchmark's one command.

Measure one workload (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 bench/run.py --workload steady_closed --seed 3 --seconds 12 --trace 0

prints every metric by name with its unit and ends with one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced server with ``--trace 1``.

Measure everything (no ``--workload``)::

    python3 bench/run.py --seed 3 [--runs N] [--repeat 2] [--out FILE]

runs each workload untraced and traced on seeds ``seed .. seed+N-1``,
cross-checks the two, prints the tables and writes a result set that
``bench/compare.py`` reads; ``--repeat 2`` measures two sets and
compares them.

Exits nonzero when a correctness gate fails, and without measuring when
the repository's ``src/`` is not there to serve.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "server" / "net.py").is_file():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import layers  # noqa: E402
from bench.harness import WORK, BenchError, Round, run_round  # noqa: E402
from bench.workloads import (  # noqa: E402
    FLUSH_POLICY,
    WORKLOADS,
    Workload,
    make_inputs,
)

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A send later than this behind its due time spoils an open-loop round.
MAX_GEN_LAG_MS = 10.0
#: Share of a workload's requests the untimed verify pass sends, sized
#: so the recorded schedule stays under ~1,500 events: the ``check``
#: verb (CT, P-RED, P-RC) is superlinear in them.
VERIFY_SCALE = {
    "steady_closed": 0.2,
    "open_poisson": 0.4,
    "burst_contended": 0.1,
    "grounded_closed": 0.2,
}
#: ``--seconds`` buys one round per this many seconds: what a round's
#: timed window takes on a quiet host.  A count, not a deadline: a slow
#: host gets as many samples as a quick one.
ROUND_S = 3.0
#: Stop starting rounds here all the same: the driver's hour has to
#: hold 92 runs.
RUN_CAP_S = 30.0


def header(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "store": "log",
        "store_fsync": FLUSH_POLICY,
        "manager": "sequential",
    }


async def measure(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> dict:
    """Verify pass, then one round per ``ROUND_S`` of ``seconds``."""
    started = time.monotonic()
    problems: list[str] = []
    small = workload.scaled(VERIFY_SCALE[workload.name])
    verify = await run_round(
        small, make_inputs(small, seed, 0), seed, False, check=True
    )
    problems += [f"verify pass: {p}" for p in verify.problems]

    rounds: list[Round] = []
    spans: list[layers.SpanSummary] = []
    discarded = 0
    while len(rounds) < max(1, math.ceil(seconds / ROUND_S)):
        if rounds and time.monotonic() - started > RUN_CAP_S:
            break
        inputs = make_inputs(workload, seed, len(rounds))
        round_ = await run_round(workload, inputs, seed, trace)
        if layers.gen_lag_p99_ms([round_]) > MAX_GEN_LAG_MS and not discarded:
            # The generator stalled, not the server: measure it again.
            discarded += 1
            continue
        rounds.append(round_)
        if trace:
            spans.append(layers.summarize_spans(round_.trace_path))
            round_.trace_path.unlink()
    for index, round_ in enumerate(rounds):
        problems += [f"round {index}: {p}" for p in round_.problems]
    exact = [layers.exact_counts(r) for r in rounds]

    return {
        "rounds": len(rounds),
        "rounds_discarded": discarded,
        "attempted": sum(len(r.samples) for r in rounds),
        "failed": sum(1 for r in rounds for s in r.samples if not s.ok),
        "window_s": statistics.median(r.closed - r.opened for r in rounds),
        "problems": problems,
        "exact": exact if workload.connections == 1 else None,
        "metrics": {
            **layers.end_to_end(rounds),
            **layers.client_health(rounds, workload),
            **(layers.per_layer(list(zip(rounds, spans))) if trace else {}),
        },
    }


def defined(section: str) -> dict[str, dict]:
    return {entry["name"]: entry for entry in DEFINITION[section]}


def print_metrics(result: dict, names: dict[str, dict]) -> None:
    for name, entry in names.items():
        value = result["metrics"][name]
        print(f"  {name:44s} {value:16.6f} {entry['unit']}")


def driver_main(args) -> int:
    """One workload, one mode; the contract's last line of JSON."""
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    names = defined("per_layer" if trace else "end_to_end")
    print(f"# {json.dumps(header(args.seed), sort_keys=True)}")
    result = asyncio.run(
        measure(workload, args.seed, args.seconds, trace)
    )
    print(
        f"# {workload.name}: {result['rounds']} rounds of "
        f"{workload.requests} requests ({result['attempted']} samples), "
        f"median window {result['window_s']:.3f} s, "
        f"{result['rounds_discarded']} discarded for generator lag"
    )
    print_metrics(result, names)
    if not trace:
        # Not gated (see README, "Steadiness"), but what a run is read by.
        print_metrics(
            result,
            {
                name: entry
                for name, entry in defined("per_layer").items()
                if name.startswith("client.")
            },
        )
    for problem in result["problems"]:
        print(f"# PROBLEM {problem}")
    correct = not result["problems"] and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {
                        "value": result["metrics"][name],
                        "unit": entry["unit"],
                    }
                    for name, entry in names.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------
def _share(metrics: dict, names) -> float:
    """Share of the engine thread's busy time spent in ``names``."""
    return (
        sum(metrics[name] for name in names)
        / metrics["server.service.busy_s"]
    )


#: What contention costs: deciding, locking, parking and waking.
CONTENTION = (
    "core.protocol.rules_s",
    "core.sharding.acquire_s",
    "core.sharding.release_s",
    "core.deadlock.resolve_s",
    "scheduler.manager.park_wake_s",
)
WIRE = ("server.protocol.decode_s", "server.protocol.encode_s")


def check_pair(plain: dict, traced: dict) -> list[str]:
    """What an untraced and a traced run of one seed must agree on."""
    problems = []
    # One connection in lockstep is byte-deterministic: round k of a
    # seed must count the same with and without the tracing hooks.
    for index, (bare, hooked) in enumerate(
        zip(plain["exact"] or (), traced["exact"] or ())
    ):
        if bare != hooked:
            problems.append(
                f"round {index}: counts moved under tracing: "
                f"{bare} vs {hooked}"
            )
    metrics = traced["metrics"]
    drift = abs(metrics["trace.self_sum_over_wall"] - 1.0)
    if drift > 0.02:
        problems.append(f"self times miss the thread wall by {drift:.1%}")
    other = (
        metrics["server.service.loop_other_s"]
        / metrics["server.service.busy_s"]
    )
    if other > 0.05:
        problems.append(f"{other:.1%} of engine-thread time unattributed")
    return problems


def measure_set(seeds: list[int], seconds: int) -> dict:
    """Every workload, untraced and traced, on every seed."""
    runs = []
    for seed in seeds:
        for workload in WORKLOADS.values():
            plain = asyncio.run(measure(workload, seed, seconds, False))
            traced = asyncio.run(measure(workload, seed, seconds, True))
            plain["problems"] += check_pair(plain, traced)
            overhead = traced["window_s"] / plain["window_s"]
            print(
                f"\n== {workload.name} seed={seed}: {plain['rounds']} "
                f"rounds, {plain['attempted']} samples, "
                f"trace_overhead {overhead:.2f}x"
            )
            print_metrics(plain, defined("end_to_end"))
            print_metrics(traced, defined("per_layer"))
            for problem in plain["problems"] + traced["problems"]:
                print(f"  PROBLEM {problem}")
            runs.append(
                {
                    "workload": workload.name,
                    "seed": seed,
                    "correct": not (
                        plain["problems"]
                        or traced["problems"]
                        or plain["failed"]
                        or traced["failed"]
                    ),
                    "rounds": plain["rounds"],
                    "attempted": plain["attempted"],
                    "failed": plain["failed"],
                    "exact": plain["exact"],
                    "trace_overhead": overhead,
                    "end_to_end": {
                        name: plain["metrics"][name]
                        for name in defined("end_to_end")
                    },
                    "per_layer": {
                        name: traced["metrics"][name]
                        for name in defined("per_layer")
                    },
                }
            )
    return {"header": header(seeds[0]), "runs": runs}


def print_predictions(result_set: dict) -> None:
    """The layer -> workload predictions README.md makes, as measured."""
    layer = {}
    for run in result_set["runs"]:
        layer.setdefault(run["workload"], run["per_layer"])
    burst, steady = (
        _share(layer[name], CONTENTION)
        for name in ("burst_contended", "steady_closed")
    )
    print("\n== predictions")
    print(
        f"  rules + lock table + park/wake: {burst:.1%} of busy time on "
        f"burst_contended, {steady:.1%} on steady_closed "
        f"({burst / steady:.1f}x; predicted >= 3x)"
    )
    for name, metrics in layer.items():
        print(
            f"  {name}: server.protocol {_share(metrics, WIRE):.2%} of "
            f"busy time (predicted < 2%); subsystems.execute_s "
            f"{metrics['subsystems.execute_s']:.4f} "
            f"(predicted 0 outside grounded_closed)"
        )


def report_main(args) -> int:
    from bench import compare

    seeds = list(range(args.seed, args.seed + args.runs))
    WORK.mkdir(exist_ok=True)
    out = Path(args.out or WORK / f"results-seed{args.seed}.json")
    paths = [out, out.with_suffix(".repeat.json")][: args.repeat]
    correct = True
    for path in paths:
        result_set = measure_set(seeds, DEFINITION["run_seconds"])
        print_predictions(result_set)
        path.write_text(json.dumps(result_set, indent=1) + "\n")
        print(f"\nwrote {path}")
        correct &= all(run["correct"] for run in result_set["runs"])
    worse = args.repeat == 2 and compare.main([str(p) for p in paths])
    return 0 if correct and not worse else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=DEFINITION["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.workload:
            return driver_main(args)
        return report_main(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
