"""Pruning strategies for the phased framework (paper §4.2.1).

Three pruners plus a combiner:

* :class:`NoPruning` — every candidate survives to the final phase (the
  paper's "No-Pruning" scalability baseline).
* :class:`ConfidenceIntervalPruner` — Algorithm 3.  Each utility criterion
  gets a worst-case Hoeffding–Serfling interval around its partial estimate;
  dominated criteria are discarded, the surviving intervals are combined
  into one interval per map and scaled by the dimension weight; a map whose
  upper bound falls below the lowest lower bound of the current top-k' is
  pruned.
* :class:`MABPruner` — Successive Accepts and Rejects.  Candidates are arms,
  phase estimates are rewards; at each phase end the SAR gap test accepts
  the best arm or rejects the worst, following a budget schedule that
  resolves all arms by the final phase.
* :class:`CombinedPruner` — CI then MAB, the full SubDEx configuration.

Pruners read a :class:`~repro.core.phases.PhaseSnapshot`'s arrays, so each
phase's decision is a few vector operations over the active specs: the CI
bounds for every map at once, and SAR's argmax/argmin over the active
means.  Ties keep their scalar-era order: the CI ranking breaks equal upper
bounds by spec order, SAR breaks equal means by ``str(spec)``, and each
pruner reports its drops in decision order.
"""

from __future__ import annotations

import enum
import math
from typing import Hashable, Protocol, Sequence

import numpy as np

from ..stats.bandits import SuccessiveAcceptsRejects
from ..stats.hoeffding import serfling_epsilon
from .phases import PhaseSnapshot
from .rating_maps import RatingMapSpec

__all__ = [
    "PruningStrategy",
    "Pruner",
    "NoPruning",
    "ConfidenceIntervalPruner",
    "MABPruner",
    "CombinedPruner",
    "make_pruner",
]


class PruningStrategy(str, enum.Enum):
    """Which pruning scheme the generator uses."""

    NONE = "none"
    CONFIDENCE_INTERVAL = "ci"
    MAB = "mab"
    COMBINED = "combined"


class Pruner(Protocol):
    """Inter-phase pruning interface used by :class:`PhasedExecution`."""

    def begin(self, specs: Sequence[RatingMapSpec], k_prime: int) -> None:
        """Reset state for a new run over ``specs`` targeting top ``k_prime``."""
        ...

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        """Return the specs to discard given the phase-end ``snapshot``."""
        ...


class NoPruning:
    """Keeps everything (the No-Pruning baseline)."""

    #: the framework may skip inter-phase scoring entirely
    needs_snapshots = False

    def begin(self, specs: Sequence[RatingMapSpec], k_prime: int) -> None:
        return None

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        return set()


class ConfidenceIntervalPruner:
    """Algorithm 3: confidence-interval based pruning.

    ``delta`` is the failure probability of the Hoeffding–Serfling bound.
    The per-criterion half-width is shared (the bound depends only on how
    much data has been seen), so intervals are ``estimate ± ε`` clamped to
    [0, 1] before dominance elimination and weighting.
    """

    def __init__(self, delta: float = 0.05) -> None:
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self._delta = delta
        self._k_prime = 1
        self._rank: dict[Hashable, int] = {}

    def begin(self, specs: Sequence[RatingMapSpec], k_prime: int) -> None:
        self._k_prime = max(1, k_prime)
        self._rank = {spec: r for r, spec in enumerate(sorted(specs))}

    def intervals(self, snapshot: PhaseSnapshot) -> tuple[np.ndarray, np.ndarray]:
        """Every map's combined, weighted interval as ``(lo, hi)`` arrays.

        Per criterion ``[max(0, x − ε), min(1, x + ε)]``; criteria whose
        interval lies entirely below another's cannot realise the max and
        drop out, which leaves ``[max lo, max hi]`` (the criterion with the
        largest lower bound is never dominated) — the rule of
        :func:`~repro.stats.intervals.combine_max_intervals`.  ``fmax`` and
        ``fmin`` keep Python's ``max``/``min`` answer should a value be NaN.
        """
        epsilon = serfling_epsilon(
            snapshot.rows_seen, snapshot.n_total, self._delta
        )
        values = snapshot.normalized
        hi = np.fmin(values + epsilon, 1.0).max(axis=1)
        lo = np.minimum(np.fmax(values - epsilon, 0.0).max(axis=1), hi)
        return lo * snapshot.weights, hi * snapshot.weights

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        specs = snapshot.specs
        if len(specs) <= self._k_prime:
            return set()
        lo, hi = self.intervals(snapshot)
        # sorted by (-hi, spec): equal upper bounds rank in spec order
        ranks = np.array([self._rank[spec] for spec in specs], dtype=np.int64)
        by_upper = np.lexsort((ranks, -hi))
        lowest_lower = lo[by_upper[: self._k_prime]].min()
        tail = by_upper[self._k_prime :]
        return {specs[i] for i in tail[hi[tail] < lowest_lower]}


class MABPruner:
    """Successive-Accepts-and-Rejects pruning.

    One SAR instance per run; at each phase end the means are refreshed from
    the snapshot and the gap test is applied repeatedly until the number of
    still-active arms meets this phase's budget target.  The target decays
    geometrically from the initial arm count down to k' at the final phase,
    mirroring SAR's shrinking-arm-set schedule under a fixed phase budget.
    Only *rejected* arms are reported for pruning; accepted arms keep
    accumulating data (their final histograms are still needed).
    """

    def __init__(self) -> None:
        self._sar: SuccessiveAcceptsRejects | None = None
        self._n_arms = 0
        self._k_prime = 1

    def begin(self, specs: Sequence[RatingMapSpec], k_prime: int) -> None:
        self._n_arms = len(specs)
        self._k_prime = max(1, k_prime)
        self._sar = SuccessiveAcceptsRejects(specs, self._k_prime)

    def _target_active(self, phase: int, n_phases: int) -> int:
        """Geometric schedule from n_arms (phase 0) to k' (final phase)."""
        if self._n_arms <= self._k_prime:
            return self._k_prime
        fraction = phase / max(1, n_phases - 1)
        target = self._n_arms * (self._k_prime / self._n_arms) ** fraction
        return max(self._k_prime, int(math.ceil(target)))

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        sar = self._sar
        if sar is None:
            raise RuntimeError("begin() must be called before prune()")
        means = np.zeros(len(sar.arms))
        present = np.zeros(len(sar.arms), dtype=bool)
        for spec, dw in zip(snapshot.specs, snapshot.dw):
            i = sar.index_of(spec)
            if i is not None:
                means[i] = dw
                present[i] = True
        # arms removed by another scheme (e.g. CI in CombinedPruner) vanish
        # from the snapshot; retire them so SAR never accepts a ghost
        for i in np.flatnonzero(sar.active_mask() & ~present):
            sar.force_reject(sar.arms[i])
        target = max(
            self._target_active(snapshot.phase, snapshot.n_phases), self._k_prime
        )
        dropped: set[RatingMapSpec] = set()
        while not sar.finished and sar.n_surviving() > target:
            verdict, arm = sar.step_array(means)
            if verdict == "reject":
                dropped.add(arm)
        return dropped


class CombinedPruner:
    """CI pruning followed by MAB pruning (the full SubDEx configuration)."""

    def __init__(self, delta: float = 0.05) -> None:
        self._ci = ConfidenceIntervalPruner(delta)
        self._mab = MABPruner()

    def begin(self, specs: Sequence[RatingMapSpec], k_prime: int) -> None:
        self._ci.begin(specs, k_prime)
        self._mab.begin(specs, k_prime)

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        dropped = self._ci.prune(snapshot)
        if dropped:
            snapshot = snapshot.without(dropped)
        return dropped | self._mab.prune(snapshot)


def make_pruner(strategy: PruningStrategy, delta: float = 0.05) -> Pruner:
    """Factory mapping a :class:`PruningStrategy` to a pruner instance."""
    if strategy is PruningStrategy.NONE:
        return NoPruning()
    if strategy is PruningStrategy.CONFIDENCE_INTERVAL:
        return ConfidenceIntervalPruner(delta)
    if strategy is PruningStrategy.MAB:
        return MABPruner()
    if strategy is PruningStrategy.COMBINED:
        return CombinedPruner(delta)
    raise ValueError(f"unknown pruning strategy {strategy!r}")
