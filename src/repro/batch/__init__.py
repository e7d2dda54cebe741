"""`repro.batch`: family-batched vectorized candidate scoring.

All FILTER candidates sharing an (attribute, dimension) family are scored
in one shot from a stacked 3-D count tensor, with an upper-bound prune
deciding which candidates pay for full preview finalisation.  See
:mod:`repro.batch.kernel` for the bitwise contract and
:mod:`repro.batch.scoring` for the orchestration.
"""

from .scoring import FamilyBatchScorer, FamilyPlan, plan_lookup

__all__ = [
    "FamilyBatchScorer",
    "FamilyPlan",
    "plan_lookup",
]
