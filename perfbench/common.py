"""Helpers shared by the workloads: spans, statistics, memory, fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail is "not supported" and reads 0.
MIN_BEYOND = 10
#: Median time of :func:`speed_probe` on the reference host (a 2-vCPU Intel
#: Xeon VM).  End-to-end timings are reported at this host speed.
PROBE_REFERENCE_S = 0.015


class Spans:
    """In-memory span recorder: name, start, end, parent and a trace id.

    Disabled, :meth:`span` costs one attribute check.  Spans are kept in a
    list and written out by the runner when the run ends.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.items: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None):
        if not self.enabled:
            yield
            return
        span_id = len(self.items)
        record = {
            "id": span_id,
            "name": name,
            "trace": trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.items.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.items if s["name"] == name]


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work.

    It runs nothing of the program, so a change to the program cannot move
    it; on a shared host its time follows the host's speed, which drifts
    by tens of percent over minutes and moves every timing with it.
    """
    started = time.perf_counter()
    total = 0
    for value in range(100_000):
        total += value * value
    table = {str(value): value for value in range(30_000)}
    rows = np.random.default_rng(0).normal(size=(200, 300))
    for row in rows:
        np.cumsum(np.sort(row))
    np.sort(np.random.default_rng(1).normal(size=100_000))
    del table
    return time.perf_counter() - started


class SpeedProbe:
    """Speed-probe samples taken between a run's operations, off the clock."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 3) -> float:
        """Probe the host now; return its slowness against the reference.

        A factor of 2 means the host currently runs at half the reference
        speed: an operation timed next is reported at half its seconds.
        """
        taken = [speed_probe() for _ in range(count)]
        self.samples.extend(taken)
        return median(taken) / PROBE_REFERENCE_S


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict  # name -> (value, unit), timings at reference host speed
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)
    measured: dict = field(default_factory=dict)  # the same, as timed


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, q: float) -> float:
    """The ``q`` quantile when ``MIN_BEYOND`` samples lie beyond it, else 0."""
    values = sorted(values)
    if len(values) * (1.0 - q) < MIN_BEYOND:
        return 0.0
    return float(values[min(len(values) - 1, int(q * len(values)))])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return (own + children) / scale


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, read from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """Environment the run measured on (load average taken when called)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "usable_cores": cores,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }
