"""Multi-armed-bandit top-k identification (Successive Accepts and Rejects).

SubDEx's MAB pruning (paper §4.2.1) treats each candidate rating map as an
arm whose reward is its DW utility estimated from one phase's worth of data.
At the end of each phase the Successive Accepts and Rejects strategy of
Bubeck, Wang & Viswanathan (2013) either *accepts* the best-looking arm into
the top-k' or *rejects* the worst-looking arm, using the gap test described
in the paper:

* Δ1 = (highest active mean) − ((k'+1)-th overall mean)
* Δ2 = (k'-th overall mean) − (lowest active mean)
* if Δ1 > Δ2 accept the highest arm, else reject the lowest.

The class below is generic over hashable arm identifiers so both the pruner
and the tests can drive it directly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

__all__ = ["SuccessiveAcceptsRejects"]

Arm = Hashable

_ACTIVE, _ACCEPTED, _REJECTED = 0, 1, 2


class SuccessiveAcceptsRejects:
    """Stateful accept/reject top-k identification.

    Arms are numbered in the order given; :meth:`step_array` takes the
    means as an array in that order, and :meth:`step` adapts a mapping.
    Ties between equal means are broken by ``str(arm)`` (the higher string
    ranks higher), with ranks computed once here.

    Parameters
    ----------
    arms:
        All arm identifiers (any iterable; read once).
    k:
        Target number of accepted arms (``k' = k × l`` in the paper).
    """

    def __init__(self, arms: Iterable[Arm], k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        arms = list(arms)
        self._index: dict[Arm, int] = {arm: i for i, arm in enumerate(arms)}
        if len(self._index) != len(arms):
            raise ValueError("duplicate arm identifiers")
        self._arms: tuple[Arm, ...] = tuple(arms)
        # dense ranks of str(arm): equal strings share a rank, so a tie
        # on (mean, str) falls back to arm order as a stable sort would
        labels = [str(arm) for arm in arms]
        order = {label: r for r, label in enumerate(sorted(set(labels)))}
        self._str_rank = np.array([order[label] for label in labels], dtype=np.int64)
        self._state = np.full(len(arms), _ACTIVE, dtype=np.int8)
        self._n_active = len(arms)
        self._k = min(k, len(arms))
        self._accepted: list[Arm] = []
        self._rejected: list[Arm] = []

    # -- state ----------------------------------------------------------------
    @property
    def arms(self) -> tuple[Arm, ...]:
        """Every arm, in the order :meth:`step_array` expects its means."""
        return self._arms

    def index_of(self, arm: Arm) -> int | None:
        """The arm's position in :attr:`arms` (``None`` if unknown)."""
        return self._index.get(arm)

    def active_mask(self) -> np.ndarray:
        """Boolean mask over :attr:`arms` of the arms still being sampled."""
        return self._state == _ACTIVE

    @property
    def active(self) -> tuple[Arm, ...]:
        """Arms still being sampled."""
        return tuple(self._arms[i] for i in np.flatnonzero(self.active_mask()))

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
        return self.remaining_slots == 0 or self._n_active <= self.remaining_slots

    def surviving(self) -> tuple[Arm, ...]:
        """Accepted arms plus still-active arms (the non-pruned set)."""
        return tuple(self._accepted) + self.active

    def n_surviving(self) -> int:
        """``len(surviving())`` without building the tuple."""
        return len(self._accepted) + self._n_active

    def topk(self, means: Mapping[Arm, float]) -> tuple[Arm, ...]:
        """The final top-k: accepted arms padded with the best active ones."""
        order = sorted(self.active, key=lambda a: means.get(a, 0.0), reverse=True)
        return tuple(self._accepted) + tuple(order[: self.remaining_slots])

    def _retire(self, i: int, state: int) -> Arm:
        arm = self._arms[i]
        self._state[i] = state
        self._n_active -= 1
        (self._accepted if state == _ACCEPTED else self._rejected).append(arm)
        return arm

    def force_reject(self, arm: Arm) -> None:
        """Remove an active arm unconditionally (pruned by another scheme)."""
        i = self._index.get(arm)
        if i is not None and self._state[i] == _ACTIVE:
            self._retire(i, _REJECTED)

    # -- the phase-end decision -------------------------------------------
    def step(self, means: Mapping[Arm, float]) -> tuple[str, Arm] | None:
        """Perform one accept-or-reject decision given current arm means.

        Returns ``("accept", arm)`` or ``("reject", arm)``, or ``None`` when
        the process is already finished.  Arms missing from ``means``
        default to 0.
        """
        if self.finished:
            return None
        values = np.array([means.get(arm, 0.0) for arm in self._arms], dtype=np.float64)
        return self.step_array(values)

    def step_array(self, means: np.ndarray) -> tuple[str, Arm] | None:
        """:meth:`step` with ``means[i]`` the mean of ``arms[i]``.

        With the active arms ranked by (mean, ``str(arm)``) descending:
        Δ1 = highest − (slots+1)-th, Δ2 = slots-th − lowest, where slots
        is the number of open top-k places; accept the highest arm if
        Δ1 > Δ2, else reject the lowest.
        """
        if self.finished:
            return None
        active = np.flatnonzero(self._state == _ACTIVE)
        values = means[active]
        ranked = np.sort(values)[::-1]  # the ranking's means, best first
        slots = self.remaining_slots
        highest, lowest = ranked[0], ranked[-1]
        kth = ranked[slots - 1]
        kplus1 = ranked[slots] if slots < len(ranked) else lowest
        if highest - kplus1 > kth - lowest:
            tied = active[values == highest]
            ranks = self._str_rank[tied]
            return ("accept", self._retire(int(tied[ranks == ranks.max()][0]), _ACCEPTED))
        tied = active[values == lowest]
        ranks = self._str_rank[tied]
        return ("reject", self._retire(int(tied[ranks == ranks.min()][-1]), _REJECTED))

    def run_to_completion(self, means: Mapping[Arm, float]) -> tuple[Arm, ...]:
        """Apply :meth:`step` until finished with fixed means; return top-k.

        Useful for the final phase, where means are exact and every pending
        decision can be resolved at once.
        """
        while self.step(means) is not None:
            pass
        return self.topk(means)
