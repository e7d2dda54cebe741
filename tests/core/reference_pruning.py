"""Reference pruners: the dict-based Algorithm 3 / SAR implementations.

A verbatim copy of the scalar ``ConfidenceIntervalPruner``, ``MABPruner``,
``CombinedPruner`` and ``SuccessiveAcceptsRejects`` that walked
``PhaseSnapshot.scores`` one candidate at a time.  The array pruners of
:mod:`repro.core.pruning` must reproduce their decisions exactly; the
equivalence suite (``test_pruning_equivalence.py``) drives both side by
side.  Test-only: nothing in the package imports this.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

from repro.core.phases import PhaseSnapshot
from repro.core.rating_maps import RatingMapSpec
from repro.stats.hoeffding import serfling_epsilon
from repro.stats.intervals import ConfidenceInterval, combine_max_intervals

Arm = Hashable


class SuccessiveAcceptsRejects:
    """Stateful accept/reject top-k identification.

    Parameters
    ----------
    arms:
        All arm identifiers.
    k:
        Target number of accepted arms (``k' = k × l`` in the paper).
    """

    def __init__(self, arms: Sequence[Arm], k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._active: list[Arm] = list(dict.fromkeys(arms))
        if len(self._active) != len(list(arms)):
            raise ValueError("duplicate arm identifiers")
        self._k = min(k, len(self._active))
        self._accepted: list[Arm] = []
        self._rejected: list[Arm] = []

    # -- state ----------------------------------------------------------------
    @property
    def active(self) -> tuple[Arm, ...]:
        """Arms still being sampled."""
        return tuple(self._active)

    @property
    def accepted(self) -> tuple[Arm, ...]:
        """Arms already committed to the top-k."""
        return tuple(self._accepted)

    @property
    def rejected(self) -> tuple[Arm, ...]:
        return tuple(self._rejected)

    @property
    def remaining_slots(self) -> int:
        """How many top-k slots are still open."""
        return self._k - len(self._accepted)

    @property
    def finished(self) -> bool:
        """True when the top-k is fully determined."""
        return self.remaining_slots == 0 or len(self._active) <= self.remaining_slots

    def surviving(self) -> tuple[Arm, ...]:
        """Accepted arms plus still-active arms (the non-pruned set)."""
        return tuple(self._accepted) + tuple(self._active)

    def topk(self, means: Mapping[Arm, float]) -> tuple[Arm, ...]:
        """The final top-k: accepted arms padded with the best active ones."""
        order = sorted(self._active, key=lambda a: means.get(a, 0.0), reverse=True)
        return tuple(self._accepted) + tuple(order[: self.remaining_slots])

    def force_reject(self, arm: Arm) -> None:
        """Remove an active arm unconditionally (pruned by another scheme)."""
        if arm in self._active:
            self._active.remove(arm)
            self._rejected.append(arm)

    # -- the phase-end decision -------------------------------------------
    def step(self, means: Mapping[Arm, float]) -> tuple[str, Arm] | None:
        """Perform one accept-or-reject decision given current arm means.

        Returns ``("accept", arm)`` or ``("reject", arm)``, or ``None`` when
        the process is already finished.  Arms missing from ``means``
        default to 0.
        """
        if self.finished:
            return None
        ranked = sorted(
            self._active, key=lambda a: (means.get(a, 0.0), str(a)), reverse=True
        )
        slots = self.remaining_slots
        highest = means.get(ranked[0], 0.0)
        lowest = means.get(ranked[-1], 0.0)
        # boundary means among the *active* ranking relative to open slots
        kth = means.get(ranked[slots - 1], 0.0)
        kplus1 = means.get(ranked[slots], 0.0) if slots < len(ranked) else lowest
        delta1 = highest - kplus1
        delta2 = kth - lowest
        if delta1 > delta2:
            arm = ranked[0]
            self._active.remove(arm)
            self._accepted.append(arm)
            return ("accept", arm)
        arm = ranked[-1]
        self._active.remove(arm)
        self._rejected.append(arm)
        return ("reject", arm)

    def run_to_completion(self, means: Mapping[Arm, float]) -> tuple[Arm, ...]:
        """Apply :meth:`step` until finished with fixed means; return top-k.

        Useful for the final phase, where means are exact and every pending
        decision can be resolved at once.
        """
        while self.step(means) is not None:
            pass
        return self.topk(means)


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

    def begin(self, specs: Sequence[RatingMapSpec], k_prime: int) -> None:
        self._k_prime = max(1, k_prime)

    def map_interval(
        self, candidate, epsilon: float
    ) -> ConfidenceInterval:
        """One combined, weighted interval for a scored candidate."""
        criterion_intervals = [
            ConfidenceInterval.around(value, epsilon)
            for value in candidate.normalized.values()
        ]
        combined = combine_max_intervals(criterion_intervals)
        return combined.scaled(candidate.weight)

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        epsilon = serfling_epsilon(
            snapshot.rows_seen, snapshot.n_total, self._delta
        )
        intervals = {
            spec: self.map_interval(candidate, epsilon)
            for spec, candidate in snapshot.scores.items()
        }
        if len(intervals) <= self._k_prime:
            return set()
        by_upper = sorted(
            intervals, key=lambda s: (-intervals[s].hi, s)
        )
        top = by_upper[: self._k_prime]
        lowest_lower = min(intervals[s].lo for s in top)
        return {
            spec
            for spec in by_upper[self._k_prime :]
            if intervals[spec].hi < lowest_lower
        }


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
        self._sar = SuccessiveAcceptsRejects(list(specs), self._k_prime)

    def _target_active(self, phase: int, n_phases: int) -> int:
        """Geometric schedule from n_arms (phase 0) to k' (final phase)."""
        if self._n_arms <= self._k_prime:
            return self._k_prime
        fraction = phase / max(1, n_phases - 1)
        target = self._n_arms * (self._k_prime / self._n_arms) ** fraction
        return max(self._k_prime, int(math.ceil(target)))

    def prune(self, snapshot: PhaseSnapshot) -> set[RatingMapSpec]:
        if self._sar is None:
            raise RuntimeError("begin() must be called before prune()")
        # arms removed by another scheme (e.g. CI in CombinedPruner) vanish
        # from the snapshot; retire them so SAR never accepts a ghost
        for arm in self._sar.active:
            if arm not in snapshot.scores:
                self._sar.force_reject(arm)
        means = {
            spec: candidate.dw_utility
            for spec, candidate in snapshot.scores.items()
        }
        target = self._target_active(snapshot.phase, snapshot.n_phases)
        dropped: set[RatingMapSpec] = set()
        while (
            not self._sar.finished
            and len(self._sar.surviving()) > max(target, self._k_prime)
        ):
            decision = self._sar.step(means)
            if decision is None:
                break
            verdict, arm = decision
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
            remaining = {
                spec: candidate
                for spec, candidate in snapshot.scores.items()
                if spec not in dropped
            }
            snapshot = PhaseSnapshot(
                snapshot.phase,
                snapshot.n_phases,
                snapshot.rows_seen,
                snapshot.n_total,
                remaining,
            )
        return dropped | self._mab.prune(snapshot)
