"""``repro.anytime`` — budget-bounded progressive recommendations.

The recommendation path is naturally anytime: the CI/MAB pruning of the
phased framework (paper Alg. 3, SAR) produces monotonically improving
partial rankings, so a time budget can cut the candidate loop at a phase
boundary and return the best-so-far instead of failing with 504/503.
This package holds the pieces the serving layers compose:

* :mod:`repro.anytime.ladder` — the quality ladder (full → CI-only →
  reduced pool → sampled → cached) as plain, IPC-shippable plans;
* :mod:`repro.anytime.controller` — live load signals (admission-gate
  occupancy, latency EWMA, breaker state) → a ladder rung;
* :mod:`repro.anytime.partial` — partial results and their
  ``completeness`` descriptors;
* :mod:`repro.anytime.budget` — the ``X-Deadline-Ms`` vs ``budget_ms``
  precedence rule (smaller wins, everywhere);
* :mod:`repro.anytime.refine` — refinement tokens whose background jobs
  finish what the budget cut short.

The cooperative loop itself is the recommendation scan
(``RecommendationBuilder._scan`` in :mod:`repro.core.recommend`), which
both ``recommend`` and
:meth:`~repro.core.recommend.RecommendationBuilder.recommend_anytime`
run: a budget or a forced cut splits it into worker-sized blocks, and
without either it is one block — so with no budget and no plan
``recommend_anytime`` *is* ``recommend``, byte for byte.
"""

from .budget import budget_deadline, effective_deadline, parse_budget_ms
from .controller import AnytimeController
from .ladder import QualityLadder, QualityRung, RungPlan
from .partial import AnytimeRecommendation, Completeness
from .refine import RefinementLostError, RefinementStore

__all__ = [
    "AnytimeController",
    "AnytimeRecommendation",
    "Completeness",
    "QualityLadder",
    "QualityRung",
    "RefinementLostError",
    "RefinementStore",
    "RungPlan",
    "budget_deadline",
    "effective_deadline",
    "parse_budget_ms",
]
