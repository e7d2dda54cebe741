"""The GMM max–min dispersion algorithm (Gonzalez 1985; paper §4.2.2).

Given n candidates, a pairwise distance, and a target size k, GMM picks a
seed and then greedily adds, k−1 times, the candidate whose minimum distance
to the already-chosen set is maximal.  For diversity defined as the minimum
pairwise distance this is a polynomial-time 2-approximation; one selection
costs O(k · n) distance evaluations (the paper states O(k² · l) for its
n = k × l candidates).

A brute-force exact solver is included for the property tests that verify
the approximation bound.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence, TypeVar

__all__ = ["gmm_select", "exact_max_min_subset", "min_pairwise"]

T = TypeVar("T")
Distance = Callable[[T, T], float]


def min_pairwise(items: Sequence[T], distance: Distance) -> float:
    """Minimum pairwise distance of ``items`` (inf for < 2 items)."""
    best = float("inf")
    for a, b in itertools.combinations(items, 2):
        d = distance(a, b)
        if d < best:
            best = d
    return best


def gmm_select(
    candidates: Sequence[T],
    k: int,
    distance: Distance,
    seed_index: int = 0,
) -> list[T]:
    """Select a k-subset of ``candidates`` with large minimum pairwise distance.

    Starts from ``candidates[seed_index]`` ("an arbitrary rating map") and
    iterates k−1 times, each time choosing the candidate maximising the
    minimum distance to the chosen set.  Ties break on candidate order so
    runs are deterministic.  Returns all candidates if k ≥ n.
    """
    if k <= 0:
        return []
    n = len(candidates)
    if k >= n:
        return list(candidates)
    if not 0 <= seed_index < n:
        raise IndexError(f"seed_index {seed_index} out of range for {n} candidates")

    chosen_idx = [seed_index]
    # min distance from each candidate to the chosen set, updated incrementally
    seed = candidates[seed_index]
    min_dist = [
        float("-inf") if i == seed_index else distance(c, seed)
        for i, c in enumerate(candidates)
    ]
    for __ in range(k - 1):
        best = max(range(n), key=lambda i: min_dist[i])
        chosen_idx.append(best)
        best_item = candidates[best]
        min_dist[best] = float("-inf")
        for i in range(n):
            if min_dist[i] == float("-inf"):
                continue
            d = distance(candidates[i], best_item)
            if d < min_dist[i]:
                min_dist[i] = d
    return [candidates[i] for i in chosen_idx]


def exact_max_min_subset(
    candidates: Sequence[T], k: int, distance: Distance
) -> list[T]:
    """Exhaustive max–min k-subset (exponential; tests only)."""
    if k <= 0:
        return []
    if k >= len(candidates):
        return list(candidates)
    best_subset: tuple[T, ...] | None = None
    best_value = float("-inf")
    for subset in itertools.combinations(candidates, k):
        value = min_pairwise(subset, distance)
        if value > best_value:
            best_value = value
            best_subset = subset
    assert best_subset is not None
    return list(best_subset)
