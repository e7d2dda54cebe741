"""Tests for the Successive Accepts and Rejects bandit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats import SuccessiveAcceptsRejects


class TestConstruction:
    def test_k_clamped_to_arm_count(self):
        sar = SuccessiveAcceptsRejects(["a", "b"], k=5)
        assert sar.remaining_slots == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SuccessiveAcceptsRejects(["a"], k=0)

    def test_duplicate_arms_rejected(self):
        with pytest.raises(ValueError):
            SuccessiveAcceptsRejects(["a", "a"], k=1)

    def test_one_shot_iterable_of_arms(self):
        sar = SuccessiveAcceptsRejects((arm for arm in "abc"), 2)
        assert sar.active == ("a", "b", "c")
        assert sar.remaining_slots == 2


class TestStep:
    def test_accepts_clear_winner(self):
        sar = SuccessiveAcceptsRejects(["a", "b", "c", "d"], k=2)
        means = {"a": 0.9, "b": 0.5, "c": 0.45, "d": 0.4}
        verdict, arm = sar.step(means)
        assert (verdict, arm) == ("accept", "a")

    def test_rejects_clear_loser(self):
        sar = SuccessiveAcceptsRejects(["a", "b", "c", "d"], k=2)
        means = {"a": 0.6, "b": 0.55, "c": 0.5, "d": 0.05}
        verdict, arm = sar.step(means)
        assert (verdict, arm) == ("reject", "d")

    def test_finishes_and_returns_none(self):
        sar = SuccessiveAcceptsRejects(["a", "b"], k=2)
        assert sar.finished
        assert sar.step({"a": 1.0, "b": 0.5}) is None

    def test_run_to_completion_identifies_topk(self):
        arms = list("abcdefgh")
        means = {arm: i / 10 for i, arm in enumerate(arms)}
        sar = SuccessiveAcceptsRejects(arms, k=3)
        top = sar.run_to_completion(means)
        assert set(top) == {"f", "g", "h"}

    def test_force_reject(self):
        sar = SuccessiveAcceptsRejects(["a", "b", "c"], k=1)
        sar.force_reject("a")
        assert "a" in sar.rejected and "a" not in sar.active
        top = sar.run_to_completion({"a": 1.0, "b": 0.2, "c": 0.1})
        assert top == ("b",)

    def test_surviving_counts_accepted_and_active(self):
        sar = SuccessiveAcceptsRejects(["a", "b", "c", "d"], k=2)
        sar.step({"a": 0.9, "b": 0.2, "c": 0.2, "d": 0.2})
        assert set(sar.surviving()) == {"a", "b", "c", "d"} - set(sar.rejected)

    @given(
        n=st.integers(3, 12),
        k=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_property_fixed_means_find_exact_topk(self, n, k, seed):
        """With stationary means and distinct values, SAR is exact."""
        rng = np.random.default_rng(seed)
        means = {f"arm{i}": float(v) for i, v in enumerate(rng.permutation(n))}
        sar = SuccessiveAcceptsRejects(list(means), k=min(k, n))
        top = sar.run_to_completion(means)
        expected = sorted(means, key=means.get, reverse=True)[: min(k, n)]
        assert set(top) == set(expected)
