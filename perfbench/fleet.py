"""Fleet workloads: tick-driven replays through ``ExplanationService``.

Each tick submits the next chunk of every stream and waits for every
``on_complete`` before the next tick (a closed loop, so latency never
measures a backlog the benchmark built).  A run replays the fleet in several
fresh service instances: ``fleet_process`` carries a per-instance offset
that only spreading a run over instances averages out.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np

from perfbench.checks import canonical, check_fleet
from perfbench.common import (
    Outcome,
    SpeedProbe,
    Spans,
    median,
    peak_rss_mb,
    proc_cpu_seconds,
    tail,
)
from repro.obs.metrics import latency_summary, merge_metric_states
from repro.service import ExplanationService, StreamConfig

CHUNK = 200
WINDOW = 150
SEGMENT = 700
SCALES = {
    "full": {"switching": 12, "replicas": 6, "stationary": 24, "ticks": 40},
    "tiny": {"switching": 2, "replicas": 1, "stationary": 2, "ticks": 6},
}
#: The stages whose sums ``service.stage_sum_share`` adds up: the ones that
#: do not nest.  Inline, ``ingest_enqueue`` wraps the synchronous explain;
#: across a shard, the worker's detect and explain are its busy time.
ACCOUNTED_STAGES = {
    "inline": ("detect", "ingest_enqueue"),
    "process": ("detect", "explain"),
}
#: ``service.stage_sum_share`` must fall in this range on ``fleet_inline``:
#: the rest of the replay is the benchmark's own loop and callbacks.
STAGE_SUM_TOLERANCE = (0.85, 1.0)
#: A completion that takes longer than this is reported as lost.
TICK_TIMEOUT = 60.0


def make_fleet(seed: int, switching: int, replicas: int, stationary: int, ticks: int) -> dict:
    """Regime-switching feeds, exact replicas of some, and stationary feeds.

    Replicas hit the explanation cache.  There are fewer of them than
    switching feeds: with as many, half the alarm chunks were cache hits
    and their median latency flipped between the hit and the miss mode
    from one seed to the next.
    """
    rng = np.random.default_rng([seed, 3])
    steps = np.arange(ticks * CHUNK)
    fleet = {}
    for index in range(switching):
        # Regimes alternate every SEGMENT observations, each feed at its own
        # phase, so the alarm count depends on the seed's noise alone.
        regime = (steps + index * SEGMENT // switching) // SEGMENT % 2
        fleet[f"switch-{index:02d}"] = rng.normal(3.0 * regime, 1.0)
    for index in range(replicas):
        fleet[f"replica-{index:02d}"] = fleet[f"switch-{index:02d}"].copy()
    for index in range(stationary):
        fleet[f"stationary-{index:02d}"] = rng.normal(0.0, 1.0, steps.size)
    return fleet


def warmup_series() -> np.ndarray:
    """A short series that raises one alarm, for the set-up warm-up pass.

    The same on every seed, so set-up cost does not vary with the workload.
    """
    rng = np.random.default_rng(0)
    return np.concatenate([rng.normal(0.0, 1.0, 300), rng.normal(3.0, 1.0, 300)])


def _service(executor: str, metrics: bool) -> ExplanationService:
    return ExplanationService(
        executor=executor,
        shards=1,
        default_config=StreamConfig(window_size=WINDOW),
        metrics=metrics,
    )


def reference_replay(fleet: dict, ticks: int) -> str:
    """Canonical report of a plain inline replay (untimed)."""
    with _service("inline", metrics=False) as service:
        for stream_id in fleet:
            service.register(stream_id)
        for tick in range(ticks):
            for stream_id, values in fleet.items():
                service.submit(stream_id, values[tick * CHUNK:(tick + 1) * CHUNK])
        return canonical(service.report())


def run_instance(fleet, ticks, executor, traced, spans, warmup, label) -> dict:
    """Set up one service, replay the fleet tick by tick, tear it down."""
    started = time.perf_counter()
    with spans.span("setup", label):
        with spans.span("service.init", label):
            service = _service(executor, metrics=traced)
        try:
            with spans.span("service.register", label):
                for stream_id in fleet:
                    service.register(stream_id)
            ready_started = time.perf_counter()
            with spans.span("cluster.wait_ready", label):
                service.wait_ready()
            ready_s = time.perf_counter() - ready_started
            with spans.span("warmup", label):
                service.register("warmup")
                for start in range(0, warmup.size, CHUNK):
                    service.submit("warmup", warmup[start:start + CHUNK])
                service.drain()
                service.remove("warmup")
        except BaseException:
            service.close(drain=False)
            raise
    setup_s = time.perf_counter() - started

    try:
        replay = _replay(service, fleet, ticks, spans, label)
        report = service.report()
        stats = service.stats()
        metrics_state = None
        if traced:
            metrics_state = service.metrics.merged(
                service.executor.metrics_state() or {}
            ).state_dict()
    finally:
        service.close()
    replay.update(
        setup_s=setup_s,
        ready_s=ready_s,
        report=report,
        stats=stats,
        metrics_state=metrics_state,
    )
    return replay


def _slim(instance: dict) -> dict:
    """What a run keeps of a checked instance, so memory stays flat."""
    report = instance.pop("report")
    del instance["results"]
    instance.update(
        alarms=report.alarms_raised,
        explained=report.explained,
        cache_stats=report.cache_stats,
    )
    return instance


def _replay(service, fleet, ticks, spans, label) -> dict:
    latencies, alarm_latencies, results = [], [], []
    done = threading.Condition()
    pending = [0]
    timed_out = False
    workers = [child.pid for child in multiprocessing.active_children()]
    worker_cpu = sum(proc_cpu_seconds(pid) for pid in workers)
    parent_cpu = time.process_time()
    submit_s = 0.0
    started = time.perf_counter()
    for tick in range(ticks):
        trace_id = f"{label}-tick{tick}"
        with spans.span("tick", trace_id):
            with done:
                pending[0] = len(fleet)
            for stream_id, values in fleet.items():
                sent = time.perf_counter()

                def on_complete(result, sent=sent):
                    elapsed = time.perf_counter() - sent
                    with done:
                        results.append(result)
                        latencies.append(elapsed)
                        if result.alarms:
                            alarm_latencies.append(elapsed)
                        pending[0] -= 1
                        if not pending[0]:
                            done.notify()

                with spans.span("service.submit", trace_id):
                    service.submit(
                        stream_id,
                        values[tick * CHUNK:(tick + 1) * CHUNK],
                        on_complete=on_complete,
                    )
                submit_s += time.perf_counter() - sent
            with done:
                if not done.wait_for(lambda: not pending[0], timeout=TICK_TIMEOUT):
                    timed_out = True
        if timed_out:
            break
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "latencies": latencies,
        "alarm_latencies": alarm_latencies,
        "results": results,
        "submit_s": submit_s,
        "parent_cpu_s": time.process_time() - parent_cpu,
        "worker_cpu_s": sum(proc_cpu_seconds(pid) for pid in workers) - worker_cpu,
    }


def _hit_ratio(instances, cache: str) -> float:
    hits = sum(i["cache_stats"].get(cache, {}).get("hits", 0) for i in instances)
    misses = sum(i["cache_stats"].get(cache, {}).get("misses", 0) for i in instances)
    return hits / (hits + misses) if hits + misses else 0.0


def _run(executor: str, seed: int, seconds: float, traced: bool, scale: str) -> Outcome:
    sizes = SCALES[scale]
    ticks = sizes["ticks"]
    fleet = make_fleet(
        seed, sizes["switching"], sizes["replicas"], sizes["stationary"], ticks
    )
    warmup = warmup_series()
    observations = len(fleet) * ticks * CHUNK
    reference = reference_replay(fleet, ticks)
    spans, probe = Spans(traced), SpeedProbe()

    plain, instrumented = [], []
    problems, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while (not plain or (traced and not instrumented)
           or time.perf_counter() < deadline):
        # Traced runs alternate plain and instrumented instances, so the
        # metrics overhead compares instances under the same conditions.
        factor = probe.sample()
        instrumented_turn = traced and len(plain) > len(instrumented)
        label = f"instance{len(plain) + len(instrumented)}"
        instance = run_instance(
            fleet, ticks, executor, instrumented_turn, spans, warmup, label
        )
        attempted += len(fleet) * ticks
        found = check_fleet(
            instance["results"], len(fleet) * ticks, observations,
            instance["report"], reference,
        )
        if found:
            failed += len(fleet) * ticks
            problems.extend(f"{label}: {problem}" for problem in found)
        instance["factor"] = factor
        (instrumented if instrumented_turn else plain).append(_slim(instance))

    def obs_per_s(instances):
        return median(observations / i["wall"] * i["factor"] for i in instances)

    details = {
        "instances": len(plain),
        "traced_instances": len(instrumented),
        "replay_s": [i["wall"] for i in plain + instrumented],
        "setup_s": [i["setup_s"] for i in plain + instrumented],
        "alarms": plain[0]["alarms"],
    }
    if not traced:
        def end_to_end(scale):
            # ``scale(i)`` is instance i's host slowness (1 for as timed).
            return {
                "setup_s": (median(i["setup_s"] / scale(i) for i in plain), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "obs_per_s": (median(observations / i["wall"] * scale(i) for i in plain), "obs/s"),
                "explain_p50_s": (
                    median(median(i["alarm_latencies"]) / scale(i) for i in plain), "s"
                ),
                "chunk_p50_s": (median(median(i["latencies"]) / scale(i) for i in plain), "s"),
            }

        return Outcome(
            end_to_end(lambda i: i["factor"]), attempted, failed, details, problems,
            probe_s=probe.samples, measured=end_to_end(lambda i: 1.0),
        )

    stages = latency_summary(merge_metric_states(i["metrics_state"] for i in instrumented))

    def stage(name, key="p50"):
        return float((stages.get(name) or {}).get(key) or 0.0)

    explain_count = stage("explain", "count")
    share = sum(stage(name, "sum") for name in ACCOUNTED_STAGES[executor]) / sum(
        i["wall"] for i in instrumented
    )
    if executor == "inline":
        low, high = STAGE_SUM_TOLERANCE
        details["accounting"] = {"tolerance": STAGE_SUM_TOLERANCE, "within": low <= share <= high}
    first = instrumented[0]
    metrics = {
        "service.detect_p50_s": (stage("detect"), "s"),
        "service.ingest_enqueue_p50_s": (stage("ingest_enqueue"), "s"),
        "service.explain_p50_s": (stage("explain"), "s"),
        "service.explain_p99_s": (
            stage("explain", "p99") if explain_count * 0.01 >= 10 else 0.0, "s"
        ),
        "service.explanation_hit_ratio": (_hit_ratio(instrumented, "explanations"), "ratio"),
        "service.preference_hit_ratio": (_hit_ratio(instrumented, "preferences"), "ratio"),
        "service.sorted_reference_hit_ratio": (
            _hit_ratio(instrumented, "sorted_references"), "ratio"
        ),
        "service.submit_s": (median(i["submit_s"] for i in instrumented), "s"),
        "service.alarms": (first["alarms"], "count"),
        "service.explained": (first["explained"], "count"),
        "service.stage_sum_share": (share, "ratio"),
        "service.chunk_p99_s": (
            tail([x for i in plain for x in i["latencies"]], 0.99), "s"
        ),
        "obs.metrics_overhead_share": (
            1.0 - obs_per_s(instrumented) / obs_per_s(plain), "ratio"
        ),
    }
    if executor == "process":
        stats = [i["stats"] for i in instrumented]
        frames = sum(s.get("frames_sent", 0) for s in stats)
        ingests = sum(s.get("ingests", 0) for s in stats)
        shm = sum(s.get("payload_bytes_shm", 0) for s in stats)
        pickled = sum(s.get("payload_bytes_inline", 0) for s in stats)
        metrics.update({
            "cluster.ready_s": (median(i["ready_s"] for i in instrumented), "s"),
            "cluster.wire_roundtrip_p50_s": (stage("wire_roundtrip"), "s"),
            "cluster.batch_wait_p50_s": (stage("batch_wait"), "s"),
            "cluster.chunks_per_frame": (
                sum(s.get("framed_chunks", 0) for s in stats) / frames if frames else 0.0,
                "count",
            ),
            "cluster.bytes_pickled_per_chunk": (pickled / ingests if ingests else 0.0, "B"),
            "cluster.shm_share": (shm / (shm + pickled) if shm + pickled else 0.0, "ratio"),
            "cluster.worker_cpu_s": (median(i["worker_cpu_s"] for i in instrumented), "s"),
            "cluster.driver_cpu_s": (median(i["parent_cpu_s"] for i in instrumented), "s"),
            "cluster.worker_busy_share": (
                median(i["worker_cpu_s"] / i["wall"] for i in instrumented), "ratio"
            ),
        })
    return Outcome(metrics, attempted, failed, details, problems, spans.items, probe.samples)


def fleet_inline(seed: int, seconds: float, traced: bool, scale: str) -> Outcome:
    return _run("inline", seed, seconds, traced, scale)


def fleet_process(seed: int, seconds: float, traced: bool, scale: str) -> Outcome:
    return _run("process", seed, seconds, traced, scale)
