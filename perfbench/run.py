"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explain_100k --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``,
reporting timings at the reference host speed of a speed probe sampled
before every operation (see ``perfbench.common.SpeedProbe``);
``--trace 1`` is the separate traced run that gives the per-layer ones, as
measured (a layer the workload does not exercise reads 0).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment
fingerprint and the recorded spans, is written to ``perfbench/out/``.
The exit code is 0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
OUT = ROOT / "perfbench" / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def stop_children(timeout: float = 10.0) -> None:
    """End every process the run started and wait for each.

    Shard workers are joined (terminated first if one outlives
    ``timeout``).  The process executor's shared-memory rings also start
    multiprocessing's resource tracker, which would otherwise outlive this
    process and never be waited for; closing its pipe ends it, and it is
    reaped here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    try:
        from perfbench import fleet, library
        from perfbench.common import fingerprint, median
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    runners = {
        "explain_100k": library.explain_100k,
        "explain_2d": library.explain_2d,
        "fleet_inline": fleet.fleet_inline,
        "fleet_process": fleet.fleet_process,
    }
    environment = {"start": fingerprint()}
    outcome = runners[args.workload](args.seed, args.seconds, bool(args.trace), args.scale)
    environment["end"] = fingerprint()
    environment["speed_probe_s"] = median(outcome.probe_s)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value, unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": float(value), "unit": unit}
    correct = outcome.failed == 0 and not outcome.problems
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": environment,
        "measured": {name: value for name, (value, _) in outcome.measured.items()},
        "details": outcome.details,
        "problems": outcome.problems,
        "result": result,
        "spans": outcome.spans,
    }))
    for name, metric in metrics.items():
        line = f"{name:<36} {metric['value']:<12.6g} {metric['unit']}"
        if name in outcome.measured:
            line += f"  (as timed {outcome.measured[name][0]:.6g})"
        print(line)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(f"details {json.dumps(outcome.details)}")
    print(f"environment {json.dumps(environment)}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
