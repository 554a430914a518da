"""Tests for the phase-2 construction (repro.core.construction)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.construction import PartialExplanationChecker, construct_most_comprehensible
from repro.core.cumulative import ExplanationProblem
from repro.core.preference import PreferenceList
from repro.core.size_search import explanation_size
from repro.exceptions import KSTestPassedError, NoExplanationError, ValidationError


def brute_force_is_partial(problem: ExplanationProblem, subset: tuple[int, ...], size: int) -> bool:
    """Ground truth for Lemma 2: is ``subset`` contained in some explanation?"""
    others = [i for i in range(problem.m) if i not in subset]
    needed = size - len(subset)
    if needed < 0:
        return False
    for completion in combinations(others, needed):
        candidate = np.array(list(subset) + list(completion))
        if problem.is_reversing_subset(candidate):
            return True
    return False


class TestPartialExplanationChecker:
    def test_empty_subset_is_partial(self, small_failed_problem):
        size = explanation_size(small_failed_problem).size
        checker = PartialExplanationChecker(small_failed_problem, size)
        empty = np.zeros(small_failed_problem.q, dtype=np.int64)
        assert checker.is_partial_explanation(empty)

    def test_matches_brute_force_for_singletons(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        checker = PartialExplanationChecker(problem, size)
        for index in range(problem.m):
            expected = brute_force_is_partial(problem, (index,), size)
            assert checker.would_extend(index) == expected, index

    def test_matches_brute_force_for_pairs(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        if size < 2:
            pytest.skip("explanation size too small for pair checks")
        base_checker = PartialExplanationChecker(problem, size)
        for first, second in combinations(range(problem.m), 2):
            checker = PartialExplanationChecker(problem, size)
            if not checker.would_extend(first):
                continue
            checker.commit(first)
            expected = brute_force_is_partial(problem, (first, second), size)
            assert checker.would_extend(second) == expected, (first, second)
        # The base checker was never mutated by the per-pair checkers.
        assert base_checker.selected_count == 0

    def test_commit_updates_state(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        checker = PartialExplanationChecker(problem, size)
        target = next(i for i in range(problem.m) if checker.would_extend(i))
        checker.commit(target)
        assert checker.selected_count == 1
        assert checker.cumulative_selected.max() == 1

    def test_infeasible_size_raises(self, paper_example):
        reference, test, alpha = paper_example
        problem = ExplanationProblem(reference, test, alpha)
        with pytest.raises(NoExplanationError):
            PartialExplanationChecker(problem, 1)

    def test_wrong_shape_rejected(self, small_failed_problem):
        size = explanation_size(small_failed_problem).size
        checker = PartialExplanationChecker(small_failed_problem, size)
        with pytest.raises(ValidationError):
            checker.is_partial_explanation(np.zeros(3, dtype=np.int64))

    def test_paper_example6_membership(self, paper_example):
        """Example 6: t4 (=20) is in no explanation; t3 (=12) and t2 (=13) are."""
        reference, test, alpha = paper_example
        problem = ExplanationProblem(reference, test, alpha)
        checker = PartialExplanationChecker(problem, 2)
        assert not checker.would_extend(3)  # t4 = 20
        assert checker.would_extend(2)      # t3 = 12
        checker.commit(2)
        assert checker.would_extend(1)      # t2 = 13


class TestConstruction:
    def test_paper_example6_explanation(self, paper_example):
        reference, test, alpha = paper_example
        problem = ExplanationProblem(reference, test, alpha)
        preference = PreferenceList.from_order([3, 2, 1, 0])
        indices = construct_most_comprehensible(problem, 2, preference.order)
        assert sorted(indices.tolist()) == [1, 2]

    def test_result_has_requested_size_and_reverses(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        preference = PreferenceList.identity(problem.m)
        indices = construct_most_comprehensible(problem, size, preference.order)
        assert indices.size == size
        assert problem.is_reversing_subset(indices)

    def test_indices_follow_preference_order(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        preference = PreferenceList.random(problem.m, seed=3)
        indices = construct_most_comprehensible(problem, size, preference.order)
        ranks = preference.ranks[indices]
        assert np.all(np.diff(ranks) > 0)

    def test_invalid_preference_rejected(self, small_failed_problem):
        size = explanation_size(small_failed_problem).size
        with pytest.raises(ValidationError):
            construct_most_comprehensible(small_failed_problem, size, [0, 0, 1])

    def test_different_preferences_same_size(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        sizes = set()
        for seed in range(4):
            preference = PreferenceList.random(problem.m, seed=seed)
            indices = construct_most_comprehensible(problem, size, preference.order)
            sizes.add(indices.size)
        assert sizes == {size}


class TestVectorizedScan:
    """The production scan against the literal Theorem 3 scan (the oracle)."""

    @pytest.mark.parametrize(
        "scale", [None, 1, 4, 20], ids=["continuous", "ints-x1", "ints-x4", "ints-x20"]
    )
    def test_matches_checker_scan_on_random_problems(self, scale):
        # ``scale`` rounds every draw to integers after multiplying by it,
        # so reference and test points share values (ties); coarser scales
        # tie more.  ``None`` keeps the continuous draws.
        rng = np.random.default_rng(42)
        compared = 0
        for trial in range(20):
            n = int(rng.integers(50, 200))
            m = int(rng.integers(50, 200))
            reference = rng.normal(size=n)
            test = np.concatenate(
                [rng.normal(size=m - m // 4), rng.uniform(2.5, 5.0, size=m // 4)]
            )
            if scale is not None:
                reference = np.round(reference * scale)
                test = np.round(test * scale)
            try:
                problem = ExplanationProblem(reference, test, alpha=0.05)
            except KSTestPassedError:
                continue  # this draw happened not to drift; irrelevant here
            if scale is not None:
                assert problem.q < n + m, f"trial {trial} drew no ties"
            size = explanation_size(problem).size
            order = rng.permutation(m)
            fast = construct_most_comprehensible(problem, size, order, scan="vectorized")
            slow = construct_most_comprehensible(problem, size, order, scan="checker")
            assert np.array_equal(fast, slow), f"trial {trial} diverged"
            compared += 1
        assert compared >= 10

    def test_unknown_scan_rejected(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(size=100)
        test = rng.normal(3.0, 1.0, size=100)
        problem = ExplanationProblem(reference, test)
        for scan in ("nope", "jit"):
            with pytest.raises(ValidationError):
                construct_most_comprehensible(problem, 5, np.arange(100), scan=scan)
