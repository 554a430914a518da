"""Library workloads: closed loops of single explain calls.

``explain_100k`` runs MOCHE at the paper's scalability setting (m = 10^5);
``explain_2d`` runs the greedy Fasano-Franceschini explainer at
n = m = 100.  Both rotate through a fixed list of inputs made from the
workload seed before any clock starts.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.checks import check_1d, check_2d
from perfbench.common import Outcome, SpeedProbe, Spans, median, peak_rss_mb
from repro.core import MOCHE, ExplanationProblem, PreferenceList
from repro.core.bounds import BoundsCalculator
from repro.core.construction import construct_most_comprehensible
from repro.core.size_search import explanation_size
from repro.datasets.synthetic import contaminated_pair
from repro.multidim import GreedyKS2DExplainer, ks2d_test

ALPHA = 0.05
#: Explainer set-ups per run; ``setup_s`` is their median.
SETUPS = 9
ROTATION = 8
#: ``core.phase_sum_share`` must fall in this range for the phases to
#: account for the untraced explain time.
PHASE_SUM_TOLERANCE = (0.85, 1.1)

SCALES = {
    "full": {"size_1d": 100_000, "warm_1d": 10_000, "size_2d": 100, "warm_2d": 30,
             "band_1d": (1000, 1150)},
    "tiny": {"size_1d": 2_000, "warm_1d": 400, "size_2d": 30, "warm_2d": 30,
             "band_1d": None},
}
#: A 100k explain's time follows its k (2.6 s at k = 1001, 4.1 s at
#: k = 1565 on one host) and barely its preference (±2% over six on one
#: pair), and k ranged from 741 to 1675 over 80 drawn pairs, so with pairs
#: drawn from the seed a seed's rotation set its median explain time.  So the
#: 1-D pairs are drawn from ``PAIRS_SEED_1D``, the same on every seed, and
#: kept only when k falls in ``band_1d`` (about 30% of draws); the workload
#: seed shuffles each test set and draws its random preference.
PAIRS_SEED_1D = 0

#: 2-D pairs: a quarter of the test set is shifted by ``SHIFT_2D`` and the
#: rest are reference points under small jitter, so the failure is driven
#: by the shifted points.
SHIFTED_2D = 0.25
SHIFT_2D = 5.0
JITTER_2D = 0.05
#: Below this many points a quarter rarely fails the 2-D test, so small
#: pairs (the warm-up pass, the tiny scale) shift a larger share.
SMALL_2D = 60
SHIFTED_SMALL_2D = 0.4
#: Full-size pairs are kept only when removing preferred points one by one
#: passes the test after exactly this many: a cheap stand-in for the
#: greedy's k, so every seed's rotation asks for the same work.
STEPS_2D = 6


def _rngs(seed: int, stream: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence([seed, stream]).spawn(ROTATION)
    return [np.random.default_rng(child) for child in children]


def _warm_rng() -> np.random.Generator:
    """The warm-up input is the same on every seed, so set-up cost is too."""
    return np.random.default_rng(0)


def make_1d_pair(rng: np.random.Generator, size: int, band=None):
    """A failing 1-D pair, with k in ``band`` if one is given."""
    for _ in range(1000):
        pair = contaminated_pair(size=size, fraction=0.03, seed=rng)
        if band is not None:
            k = explanation_size(ExplanationProblem(pair.reference, pair.test, ALPHA)).size
            if not band[0] <= k <= band[1]:
                continue
        return pair.reference, pair.test
    raise RuntimeError("could not draw a 1-D pair with k in the band")


def shuffled_1d_input(pair, rng: np.random.Generator):
    """``pair`` with its test set shuffled and a random preference (same k)."""
    reference, test = pair
    return reference, test[rng.permutation(test.size)], PreferenceList.random(test.size, seed=rng)


def make_1d_input(rng: np.random.Generator, size: int):
    """A failing 1-D pair with a random preference."""
    return shuffled_1d_input(make_1d_pair(rng, size), rng)


def make_2d_input(rng: np.random.Generator, size: int):
    """A failing 2-D pair with its outlier-score preference."""
    share = SHIFTED_2D if size >= SMALL_2D else SHIFTED_SMALL_2D
    shifted = int(round(share * size))
    for _ in range(1000):
        reference = rng.normal(size=(size, 2))
        kept = reference[rng.permutation(size)[: size - shifted]]
        test = np.concatenate([
            kept + rng.normal(0.0, JITTER_2D, kept.shape),
            rng.normal(size=(shifted, 2)) + SHIFT_2D,
        ])
        if ks2d_test(reference, test, ALPHA).passed:
            continue
        scores = ((test - reference.mean(axis=0)) ** 2).sum(axis=1)
        preference = PreferenceList.from_scores(scores, seed=rng)
        if size < SMALL_2D or _steps_to_pass(reference, test, preference) == STEPS_2D:
            return reference, test, preference
    raise RuntimeError("could not draw a failing 2-D pair")


def _steps_to_pass(reference, test, preference) -> int:
    """Preferred points removed, in order, before the 2-D test passes."""
    keep = np.ones(test.shape[0], dtype=bool)
    for steps, index in enumerate(preference.order[:STEPS_2D + 1], start=1):
        keep[index] = False
        if ks2d_test(reference, test[keep], ALPHA).passed:
            return steps
    return STEPS_2D + 1


def _run(seconds, traced, inputs, warm, make_explainer, explain, traced_explain,
         check, layer_metrics, rescale) -> Outcome:
    """The closed loop both library workloads share.

    ``explain(explainer, input)`` is the timed call; a traced run alternates
    it with ``traced_explain(explainer, input, spans, trace_id)`` on the
    same input, which must return the same indices.  ``check`` runs once
    per input after the loop; ``layer_metrics`` builds the per-layer
    metrics of a traced run.  With ``rescale`` the end-to-end timings are
    reported at the reference host speed, each set-up and explain by the
    speed-probe samples taken right before it; without, as timed.
    """
    spans, probe = Spans(traced), SpeedProbe()
    setup_times, setup_factors = [], []
    for _ in range(SETUPS):
        setup_factors.append(probe.sample())
        started = time.perf_counter()
        explainer = make_explainer()
        explain(explainer, warm)
        setup_times.append(time.perf_counter() - started)

    latencies, factors, outputs, slots, bad, problems = [], [], {}, [], set(), []
    deadline = time.perf_counter() + seconds
    while len(slots) < (2 if traced else 1) or time.perf_counter() < deadline:
        factor = probe.sample()
        turn = len(slots)
        slot = (turn // 2 if traced else turn) % ROTATION
        if traced and turn % 2:
            indices = traced_explain(explainer, inputs[slot], spans, f"explain-{turn}")
        else:
            started = time.perf_counter()
            explanation = explain(explainer, inputs[slot])
            latencies.append(time.perf_counter() - started)
            factors.append(factor)
            indices = explanation.indices
            outputs.setdefault(slot, explanation)
        if not np.array_equal(indices, outputs[slot].indices):
            bad.add(turn)
            problems.append(f"input {slot}: explanation changed between calls")
        slots.append(slot)

    for slot, explanation in outputs.items():
        found = check(inputs[slot], explanation)
        if found:
            bad.update(turn for turn, used in enumerate(slots) if used == slot)
            problems.extend(f"input {slot}: {problem}" for problem in found)

    details = {"explains": len(latencies), "explain_s": latencies}
    outcome = Outcome({}, len(slots), len(bad), details, problems, spans.items, probe.samples)
    if traced:
        outcome.metrics = layer_metrics(spans, outputs, median(latencies), details)
        return outcome
    reference, test, _ = inputs[0]

    def end_to_end(explain_times, setups):
        explain_s = median(explain_times)
        return {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "obs_per_s": ((reference.shape[0] + test.shape[0]) / explain_s, "obs/s"),
            "explain_p50_s": (explain_s, "s"),
            "chunk_p50_s": (explain_s, "s"),
        }

    outcome.measured = end_to_end(latencies, setup_times)
    outcome.metrics = end_to_end(
        [t / f for t, f in zip(latencies, factors)],
        [t / f for t, f in zip(setup_times, setup_factors)],
    ) if rescale else dict(outcome.measured)
    return outcome


def explain_100k(seed: int, seconds: float, traced: bool, scale: str) -> Outcome:
    sizes = SCALES[scale]
    pairs = [
        make_1d_pair(rng, sizes["size_1d"], sizes["band_1d"]) for rng in _rngs(PAIRS_SEED_1D, 1)
    ]
    inputs = [shuffled_1d_input(pair, rng) for pair, rng in zip(pairs, _rngs(seed, 1))]
    warm = make_1d_input(_warm_rng(), sizes["warm_1d"])

    def explain(explainer, item):
        reference, test, preference = item
        return explainer.explain_problem(ExplanationProblem(reference, test, ALPHA), preference)

    def traced_explain(explainer, item, spans, trace_id):
        # MOCHE.explain_problem's phases, in its order, one span each.
        reference, test, preference = item
        with spans.span("explain", trace_id):
            with spans.span("core.problem", trace_id):
                problem = ExplanationProblem(reference, test, ALPHA)
            with spans.span("core.size_search", trace_id):
                calculator = BoundsCalculator(problem)
                search = explanation_size(problem, calculator=calculator)
            with spans.span("core.construct", trace_id):
                indices = construct_most_comprehensible(
                    problem, search.size, preference.order, calculator=calculator
                )
            with spans.span("core.verify", trace_id):
                problem.test_after_removal(indices)
        return indices

    def check(item, explanation):
        return check_1d(item[0], item[1], explanation.indices, ALPHA)

    def layer_metrics(spans, outputs, explain_s, details):
        phases = {
            name: median(spans.durations(f"core.{name}"))
            for name in ("problem", "size_search", "construct", "verify")
        }
        share = sum(phases.values()) / explain_s
        low, high = PHASE_SUM_TOLERANCE
        details["accounting"] = {"tolerance": PHASE_SUM_TOLERANCE, "within": low <= share <= high}
        first = outputs[0]
        metrics = {f"core.{name}_s": (value, "s") for name, value in phases.items()}
        metrics.update({
            "core.phase_sum_share": (share, "ratio"),
            "core.k": (first.size, "count"),
            "core.k_gap": (first.size - first.size_lower_bound, "count"),
            "core.sizes_checked": (first.sizes_checked, "count"),
            "core.candidates_scanned": (
                int(inputs[0][2].ranks[first.indices].max()) + 1, "count"
            ),
        })
        return metrics

    # As timed: over 20 runs the 100k explain time followed k and not the
    # speed probe, which spread 41% across runs whose explains moved 7%.
    return _run(seconds, traced, inputs, warm, lambda: MOCHE(alpha=ALPHA), explain,
                traced_explain, check, layer_metrics, rescale=False)


def explain_2d(seed: int, seconds: float, traced: bool, scale: str) -> Outcome:
    sizes = SCALES[scale]
    inputs = [make_2d_input(rng, sizes["size_2d"]) for rng in _rngs(seed, 2)]
    warm = make_2d_input(_warm_rng(), sizes["warm_2d"])

    def explain(explainer, item):
        return explainer.explain(*item)

    def traced_explain(explainer, item, spans, trace_id):
        with spans.span("explain", trace_id):
            explanation = explainer.explain(*item)
        for _ in range(5):
            with spans.span("multidim.ks2d_test", trace_id):
                ks2d_test(item[0], item[1], ALPHA)
        return explanation.indices

    def check(item, explanation):
        return check_2d(item[0], item[1], explanation, ALPHA)

    def layer_metrics(spans, outputs, explain_s, details):
        return {
            "multidim.ks2d_test_s": (median(spans.durations("multidim.ks2d_test")), "s"),
            "multidim.k": (outputs[0].size, "count"),
        }

    return _run(seconds, traced, inputs, warm, lambda: GreedyKS2DExplainer(alpha=ALPHA),
                explain, traced_explain, check, layer_metrics, rescale=True)
