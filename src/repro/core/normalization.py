"""Normalization of interestingness scores (paper §3.2.3, following [51]).

The four criteria live on different scales (conciseness is a ratio of
record counts; the others are already in [0, 1]), so before aggregation
every criterion is normalised into [0, 1].  Two strategies are provided:

* ``SQUASH`` (default) — a fixed monotone squashing that needs no
  cross-candidate state, so utilities compare across rating groups, as
  Eq. (2) requires when it sums map utilities per candidate operation;
* ``MINMAX`` (the choice of [51], an ablation here) — per-criterion
  min–max over the candidate maps of the current step.
"""

from __future__ import annotations

import enum
import math
from typing import Hashable, Mapping, TypeVar

__all__ = [
    "NormalizationStrategy",
    "conciseness_01",
    "minmax_normalize",
    "squash_ratio",
]

K = TypeVar("K", bound=Hashable)


class NormalizationStrategy(str, enum.Enum):
    """How raw criterion scores are mapped into [0, 1]."""

    MINMAX = "minmax"
    SQUASH = "squash"


def minmax_normalize(values: Mapping[K, float]) -> dict[K, float]:
    """Min–max normalise ``values`` into [0, 1].

    NaNs map to 0 (an undefined criterion never wins the max).  When all
    finite values coincide there is no contrast to exploit, so every key
    receives the neutral score 0.5.
    """
    finite = [v for v in values.values() if not math.isnan(v)]
    if not finite:
        return {k: 0.0 for k in values}
    lo, hi = min(finite), max(finite)
    if hi - lo < 1e-12:
        return {k: (0.0 if math.isnan(v) else 0.5) for k, v in values.items()}
    span = hi - lo
    return {
        k: (0.0 if math.isnan(v) else (v - lo) / span) for k, v in values.items()
    }


def conciseness_01(n_subgroups: int) -> float:
    """Scale-free conciseness in (0, ~0.16]: ``0.25 / log2(2 + n_subgroups)``.

    Depends only on the subgroup count, so it is comparable across rating
    groups of different sizes — which Problem 2 requires when summing map
    utilities across candidate operations.  The 0.25 factor keeps the score
    of even the tidiest (two-subgroup) map below a *meaningful* peculiarity
    or agreement signal: under max-aggregation, conciseness is a weak prior
    for readable maps, never a criterion that drowns real contrast — every
    binary attribute would otherwise tie at the top of the ranking and
    flood the candidate pool.  Maps with fewer than two subgroups are
    uninformative and score 0.
    """
    if n_subgroups < 2:
        return 0.0
    return 0.25 / math.log2(2.0 + n_subgroups)


def squash_ratio(value: float, midpoint: float) -> float:
    """Map an unbounded non-negative ratio into [0, 1).

    ``value / (value + midpoint)`` — 0.5 at the midpoint, monotone, and
    saturating.  NaN maps to 0.
    """
    if math.isnan(value):
        return 0.0
    if value < 0:
        raise ValueError(f"ratio must be non-negative, got {value}")
    if midpoint <= 0:
        raise ValueError(f"midpoint must be positive, got {midpoint}")
    return value / (value + midpoint)
