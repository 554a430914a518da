"""The benchmark's own tests (tiny inputs; about a minute on two cores).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/bench_selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare, fleet, library  # noqa: E402
from perfbench.checks import canonical, check_1d, check_2d, check_fleet  # noqa: E402
from perfbench.common import Spans  # noqa: E402
from repro.core import MOCHE  # noqa: E402
from repro.multidim import GreedyKS2DExplainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNNERS = {
    "explain_100k": library.explain_100k,
    "explain_2d": library.explain_2d,
    "fleet_inline": fleet.fleet_inline,
    "fleet_process": fleet.fleet_process,
}
#: Per-layer prefixes each workload's traced run must measure itself.
LAYERS = {
    "explain_100k": ("core.",),
    "explain_2d": ("multidim.",),
    "fleet_inline": ("service.", "obs."),
    "fleet_process": ("service.", "cluster.", "obs."),
}


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", "0", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0, metric["name"]


def session_processes(session: int) -> list:
    """Pids of every process in ``session``, zombies included (from /proc)."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[3]) == session:
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_leaves_no_process_behind():
    # The shard worker and the shared-memory resource tracker must both have
    # ended, and been waited for, when the command exits.
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_process",
         "--seed", "3", "--seconds", "0.5", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=170) == 0
    assert session_processes(process.pid) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_measures_its_layers(workload):
    outcome = RUNNERS[workload](5, 0.2, True, "tiny")
    assert outcome.failed == 0 and not outcome.problems
    expected = {
        m["name"] for m in SPEC["per_layer"] if m["name"].startswith(LAYERS[workload])
    }
    assert expected <= set(outcome.metrics)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (_, unit) in outcome.metrics.items():
        assert units[name] == unit
    assert outcome.spans and all(s["end"] >= s["start"] for s in outcome.spans)


def test_traced_cli_prints_every_per_layer_metric():
    done = run_cli("--workload", "explain_100k", "--seed", "3", "--seconds", "0.2",
                   "--trace", "1", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_tampered_1d_explanation_fails():
    rng = np.random.default_rng(1)
    reference, test, preference = library.make_1d_input(rng, 2_000)
    explanation = MOCHE().explain(reference, test, preference)
    assert check_1d(reference, test, explanation.indices, 0.05) == []
    for drop in (0, explanation.size // 2, explanation.size - 1):
        tampered = np.delete(explanation.indices, drop)
        assert check_1d(reference, test, tampered, 0.05)


def test_tampered_2d_explanation_fails():
    rng = np.random.default_rng(2)
    reference, test, preference = library.make_2d_input(rng, 40)
    explanation = GreedyKS2DExplainer().explain(reference, test, preference)
    assert check_2d(reference, test, explanation, 0.05) == []
    explanation.indices = explanation.indices[:-1]
    assert check_2d(reference, test, explanation, 0.05)


def test_tampered_fleet_explanation_fails():
    sizes = fleet.SCALES["tiny"]
    streams = fleet.make_fleet(
        4, sizes["switching"], sizes["replicas"], sizes["stationary"], sizes["ticks"]
    )
    reference = fleet.reference_replay(streams, sizes["ticks"])
    instance = fleet.run_instance(
        streams, sizes["ticks"], "inline", False, Spans(False), fleet.warmup_series(), "t"
    )
    chunks = len(streams) * sizes["ticks"]
    args = (instance["results"], chunks, chunks * fleet.CHUNK, instance["report"])
    assert check_fleet(*args, reference) == []
    alarm = next(a for s in instance["report"].streams for a in s.alarms)
    alarm.explanation.indices = alarm.explanation.indices[1:]
    assert canonical(instance["report"]) != reference
    assert check_fleet(*args, reference)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts(tmp_path, capsys):
    def write(side, seed, value):
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        payload = {"workload": WORKLOADS[0], "seed": seed, "trace": 0,
                   "result": {"metrics": metrics}}
        (directory / f"{seed}.json").write_text(json.dumps(payload))

    for seed in range(10):
        write("base", seed, 1.0 + 0.001 * seed)
        write("same", seed, 1.0 + 0.001 * (9 - seed))
        write("slow", seed, 2.0 + 0.001 * seed)
    assert compare.compare(tmp_path / "base", tmp_path / "same") == 0
    assert compare.compare(tmp_path / "base", tmp_path / "slow") == 1
    printed = capsys.readouterr().out
    assert "worse" in printed and "better" in printed
