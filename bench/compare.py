"""Apply the bounds in ``BENCHMARK.json`` to two result sets.

    python3 bench/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both are written by
``bench/run.py`` (no ``--workload``).  One row per (end-to-end metric,
workload): each side's median over its runs, the change as a share of
the parent's median (positive = worse), and a verdict:

``same``        within the metric's bound
``worse``       worse by more than the bound           (exit code 1)
``better``      better by more than the bound
``unresolved``  one side's runs spread wider than the bound and the two
                sides' runs overlap: neither a change nor its absence
                is shown

A side with a single run has no spread to show and is taken at its word.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, change as a share of the parent, positive = worse)``."""
    sign = 1.0 if better == "lower" else -1.0  # badness = sign * value
    bad_parent = [sign * value for value in parent]
    bad_change = [sign * value for value in change]
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / abs(base)
    noisy = max(spread(parent), spread(change)) > bound
    apart = min(bad_change) > max(bad_parent) or max(bad_change) < min(
        bad_parent
    )
    if noisy and not apart:
        return "unresolved", worse_by
    if abs(worse_by) <= bound:
        return "same", worse_by
    return ("worse" if worse_by > 0 else "better"), worse_by


def _values(result_set: dict) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in result_set["runs"]:
        for name, value in run["end_to_end"].items():
            values.setdefault((name, run["workload"]), []).append(value)
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (
        _values(json.loads(Path(path).read_text())) for path in argv
    )
    worse = 0
    print(
        f"{'metric':24s} {'workload':16s} {'parent':>12s} {'change':>12s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict"
    )
    for entry in definition["end_to_end"]:
        for workload in (w["name"] for w in definition["workloads"]):
            key = (entry["name"], workload)
            if key not in parent or key not in change:
                print(f"{key[0]:24s} {key[1]:16s} missing from one side")
                worse += 1
                continue
            word, worse_by = verdict(
                parent[key], change[key], entry["better"], entry["bound"]
            )
            worse += word == "worse"
            print(
                f"{key[0]:24s} {key[1]:16s} "
                f"{statistics.median(parent[key]):12.4f} "
                f"{statistics.median(change[key]):12.4f} "
                f"{worse_by:+9.2%} {entry['bound']:6.2f}  {word}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
