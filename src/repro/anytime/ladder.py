"""The quality ladder: graded cheap-answer variants of recommendation scoring.

The paper's CI/MAB pruning (Alg. 3, SAR) is naturally anytime: partial
phase estimates already rank candidates, so cutting work early trades
quality for latency instead of failing.  The ladder names the discrete
trade-off points the serving layer can stand on, cheapest last:

``FULL``
    the configured pipeline, every candidate, exact previews;
``CI_ONLY``
    confidence-interval pruning only (no SAR pass) on full-pipeline
    previews, and a generous candidate cap;
``REDUCED_POOL``
    the pressure-sized candidate pool — recommendation quality degrades
    before availability does;
``SAMPLED``
    a strided sample of the reduced pool scored with single-phase
    previews — a fast sketch of the neighbourhood;
``CACHED``
    no scoring at all: serve the last full-quality answer (the stored
    step recommendations), clearly flagged stale.

A :class:`RungPlan` is deliberately plain data (ints and strings, no
engine imports) so the front can pick a rung and ship the plan to a
cluster worker over the existing IPC envelope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["QualityRung", "RungPlan", "QualityLadder"]


class QualityRung(enum.IntEnum):
    """One step of the degradation ladder (higher value = cheaper)."""

    FULL = 0
    CI_ONLY = 1
    REDUCED_POOL = 2
    SAMPLED = 3
    CACHED = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "QualityRung":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown quality rung {label!r}") from None


@dataclass(frozen=True)
class RungPlan:
    """What one rung is allowed to spend, in engine-agnostic terms.

    ``candidate_cap`` bounds how many neighbourhood operations are scored
    (``None`` = all); ``sample_stride`` scores every ``stride``-th
    candidate of the capped pool; ``preview_phases`` overrides the
    preview generator's phase count; ``pruning`` overrides its pruning
    strategy (a :class:`~repro.core.pruning.PruningStrategy` value string,
    honoured only when previews run the full pipeline); ``use_cached``
    skips scoring entirely.
    """

    rung: QualityRung
    candidate_cap: int | None = None
    sample_stride: int = 1
    preview_phases: int | None = None
    pruning: str | None = None
    use_cached: bool = False

    @property
    def label(self) -> str:
        return self.rung.label


class QualityLadder:
    """Maps each :class:`QualityRung` to its :class:`RungPlan`.

    The caps are tunable so deployments can widen or narrow the rungs;
    the defaults keep each rung strictly no more expensive than the one
    above it (``REDUCED_POOL`` matches the recommender's
    ``PRESSURE_CANDIDATE_CAP`` degradation).
    """

    def __init__(
        self,
        ci_only_cap: int = 48,
        reduced_pool_cap: int = 16,
        sampled_cap: int = 16,
        sample_stride: int = 2,
    ) -> None:
        if reduced_pool_cap < 1 or sampled_cap < 1 or ci_only_cap < 1:
            raise ValueError("ladder candidate caps must be >= 1")
        if sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
        self._plans = {
            QualityRung.FULL: RungPlan(QualityRung.FULL),
            QualityRung.CI_ONLY: RungPlan(
                QualityRung.CI_ONLY,
                candidate_cap=ci_only_cap,
                pruning="ci",
            ),
            QualityRung.REDUCED_POOL: RungPlan(
                QualityRung.REDUCED_POOL,
                candidate_cap=reduced_pool_cap,
            ),
            QualityRung.SAMPLED: RungPlan(
                QualityRung.SAMPLED,
                candidate_cap=sampled_cap,
                sample_stride=sample_stride,
                preview_phases=1,
            ),
            QualityRung.CACHED: RungPlan(
                QualityRung.CACHED, candidate_cap=0, use_cached=True
            ),
        }

    def plan(self, rung: QualityRung) -> RungPlan:
        return self._plans[rung]

    def rungs(self) -> tuple[QualityRung, ...]:
        return tuple(QualityRung)
