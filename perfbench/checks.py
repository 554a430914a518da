"""Correctness checks made from outside the program.

Each check returns a list of problems (empty when the output is right);
the workloads count an operation as failed when its list is non-empty.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.bounds import BoundsCalculator
from repro.core.cumulative import ExplanationProblem
from repro.core.ks import ks_test
from repro.multidim import ks2d_test


def _index_problems(indices: np.ndarray, m: int) -> list[str]:
    if indices.size and (indices.min() < 0 or indices.max() >= m):
        return ["explanation index out of range"]
    if np.unique(indices).size != indices.size:
        return ["explanation repeats an index"]
    return []


def check_1d(reference, test, indices, alpha: float) -> list[str]:
    """``ks_test(R, T \\ I)`` passes and no reversing subset of size k-1 exists."""
    indices = np.asarray(indices, dtype=np.int64)
    problems = _index_problems(indices, test.size)
    if problems:
        return problems
    if not ks_test(reference, np.delete(test, indices), alpha).passed:
        problems.append("removing the explanation does not pass the KS test")
    k = int(indices.size)
    problem = ExplanationProblem(reference, test, alpha)
    if k > 1 and BoundsCalculator(problem).qualified_vector_exists(k - 1):
        problems.append(f"a reversing subset of size {k - 1} exists: k is not minimal")
    return problems


def check_2d(reference, test, explanation, alpha: float) -> list[str]:
    """``result_after.passed``, confirmed by a fresh 2-D test on ``T \\ I``."""
    indices = np.asarray(explanation.indices, dtype=np.int64)
    problems = _index_problems(indices, test.shape[0])
    if problems:
        return problems
    if not explanation.result_after.passed:
        problems.append("result_after does not pass")
    if not ks2d_test(reference, np.delete(test, indices, axis=0), alpha).passed:
        problems.append("removing the explanation does not pass the 2-D test")
    if indices.size > 1 and ks2d_test(
        reference, np.delete(test, indices[:-1], axis=0), alpha
    ).passed:
        problems.append("the greedy did not stop at its first reversal")
    return problems


def canonical(report) -> str:
    """The fleet report's canonical form, as compared across replays."""
    return json.dumps(report.canonical_dict(), sort_keys=True)


def check_fleet(results, submitted: int, observations: int, report, reference: str) -> list[str]:
    """No chunk lost or unexplained, and the report matches the reference replay."""
    problems = []
    if len(results) != submitted:
        problems.append(f"{len(results)} of {submitted} chunks completed")
    if any(result.lost for result in results):
        problems.append("a chunk was lost")
    served = sum(result.observations for result in results)
    if served != observations:
        problems.append(f"{served} of {observations} observations served")
    for result in results:
        for alarm in result.alarms:
            if not alarm.explained or alarm.error or alarm.dropped:
                problems.append(f"alarm at {alarm.stream_id}:{alarm.position} unexplained")
            elif not alarm.explanation.reverses_test:
                problems.append(f"alarm at {alarm.stream_id}:{alarm.position} not reversed")
    if report.alarms_raised != report.explained:
        problems.append(f"{report.explained} of {report.alarms_raised} alarms explained")
    if canonical(report) != reference:
        problems.append("canonical report differs from the inline reference replay")
    return problems
