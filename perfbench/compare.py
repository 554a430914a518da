"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are directories of result files written by
``perfbench/run.py`` (``perfbench/out/`` copied aside after each set of
runs).  For every workload and end-to-end metric the tool prints both
sides' medians and quartiles, each side's spread (quartile distance as a
share of its median) and a verdict by the bounds in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``better``: the change wins at least nine tenths of the paired runs and
  the medians differ by more than the base's own spread;
* ``unresolved``: either side spreads wider than the bound, unless every
  run of the change beats every run of the base;
* ``same``: none of the above.

Runs pair up by seed when both sides used the same seeds, otherwise in
seed order.  The exit code is 1 when any row reads ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """``{workload: {seed: {metric: value}}}`` for the untraced runs."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload.get("trace"):
            continue
        metrics = payload["result"]["metrics"]
        runs[payload["workload"]][payload["seed"]] = {
            name: metric["value"] for name, metric in metrics.items()
        }
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(base: list[float], change: list[float], pairs, bound: float, lower: bool) -> str:
    def improves(new: float, old: float) -> bool:
        return new < old if lower else new > old

    base_med, base_q1, base_q3 = summary(base)
    change_med, change_q1, change_q3 = summary(change)
    worsening = (change_med - base_med) / base_med * (1 if lower else -1)
    if worsening > bound:
        return "worse"
    base_spread = (base_q3 - base_q1) / base_med
    change_spread = (change_q3 - change_q1) / change_med
    dominates = all(improves(new, old) for new in change for old in base)
    if max(base_spread, change_spread) > bound and not dominates:
        return "unresolved"
    wins = sum(improves(new, old) for old, new in pairs)
    if wins >= 0.9 * len(pairs) and -worsening > base_spread:
        return "better"
    return "same"


def compare(base_dir: Path, change_dir: Path) -> int:
    spec = json.loads(SPEC.read_text())
    base_runs, change_runs = load_runs(base_dir), load_runs(change_dir)
    header = (f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'change':>8}  {'spreads':<13} verdict")
    print(header)
    print("-" * len(header))
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        base, change = base_runs.get(workload, {}), change_runs.get(workload, {})
        if not base or not change:
            print(f"{workload:<14} (missing runs: base {len(base)}, change {len(change)})")
            continue
        shared = sorted(set(base) & set(change))
        if len(shared) == min(len(base), len(change)):
            seed_pairs = [(seed, seed) for seed in shared]
        else:
            seed_pairs = list(zip(sorted(base), sorted(change)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [base[seed][name] for seed in sorted(base)]
            new = [change[seed][name] for seed in sorted(change)]
            pairs = [(base[a][name], change[b][name]) for a, b in seed_pairs]
            lower = metric["better"] == "lower"
            result = verdict(old, new, pairs, metric["bound"], lower)
            worse |= result == "worse"
            old_med, old_q1, old_q3 = summary(old)
            new_med, new_q1, new_q3 = summary(new)
            print(
                f"{workload:<14} {name:<14} "
                f"{f'{old_med:.4g} [{old_q1:.4g}, {old_q3:.4g}]':<34} "
                f"{f'{new_med:.4g} [{new_q1:.4g}, {new_q3:.4g}]':<34} "
                f"{100 * (new_med - old_med) / old_med:+7.2f}%  "
                f"{(old_q3 - old_q1) / old_med:.3f}/{(new_q3 - new_q1) / new_med:.3f}   "
                f"{result} (bound {metric['bound']}, n={len(old)}/{len(new)})"
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="directory of the base runs")
    parser.add_argument("change", type=Path, help="directory of the change's runs")
    args = parser.parse_args(argv)
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
