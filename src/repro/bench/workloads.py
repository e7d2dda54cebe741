"""Shared benchmark workloads.

Every ``benchmarks/`` file needs the same ingredients: a dataset at a
CI-friendly scale and the recommender bounds that keep it interactive.
Centralising them keeps the per-bench files about *what* they measure.

Scales are configurable through environment variables so the same files
serve both quick CI runs and full paper-scale regeneration:

* ``REPRO_BENCH_SCALE`` — dataset scale factor (default 0.03);
* ``REPRO_BENCH_SUBJECTS`` — subjects per study cell (default 10).
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..core.recommend import RecommenderConfig
from ..datasets import movielens, yelp
from ..model.database import SubjectiveDatabase

__all__ = [
    "bench_scale",
    "bench_subjects",
    "bench_database",
    "bench_recommender_config",
]


def bench_scale() -> float:
    """Dataset scale factor for benches (env ``REPRO_BENCH_SCALE``)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))


def bench_subjects() -> int:
    """Subjects per study cell (env ``REPRO_BENCH_SUBJECTS``)."""
    return int(os.environ.get("REPRO_BENCH_SUBJECTS", "10"))


def bench_recommender_config() -> RecommenderConfig:
    """Bounded operation fan-out so RP paths stay interactive in benches."""
    return RecommenderConfig(max_values_per_attribute=5)


@lru_cache(maxsize=8)
def bench_database(name: str, seed: int = 2) -> SubjectiveDatabase:
    """A cached dataset instance at bench scale."""
    scale = bench_scale()
    if name == "movielens":
        # MovieLens needs density (≈100 records/reviewer in the original)
        # for subgroup extremes to stabilise; floor its scale accordingly
        return movielens(seed=seed, scale_factor=max(scale, 0.12))
    if name == "yelp":
        return yelp(seed=seed, scale_factor=scale)
    raise KeyError(f"unknown bench dataset {name!r}")


def restrict_attribute_count(
    database: SubjectiveDatabase, n_attributes: int, seed: int = 0
) -> SubjectiveDatabase:
    """Keep only ``n_attributes`` explorable attributes (Fig. 10b workload).

    Attributes are dropped at random (seeded), split proportionally between
    the reviewer and item tables.
    """
    import numpy as np

    from ..model.database import Side

    rng = np.random.default_rng(seed)
    pairs = list(database.grouping_attributes())
    keep_idx = rng.choice(
        len(pairs), size=min(n_attributes, len(pairs)), replace=False
    )
    keep = {pairs[int(i)] for i in keep_idx}
    reviewer_keep = tuple(a for s, a in keep if s is Side.REVIEWER)
    item_keep = tuple(a for s, a in keep if s is Side.ITEM)
    return database.restrict(reviewer_keep, item_keep)


def restrict_value_count(
    database: SubjectiveDatabase, max_values: int
) -> SubjectiveDatabase:
    """Cap every explorable attribute at its ``max_values`` most frequent
    values (Fig. 10c workload) — rarer values become missing.
    """
    from ..db.column import CategoricalColumn, column_from_values
    from ..db.types import ColumnType
    from ..model.database import Side
    from ..model.database import SubjectiveDatabase as SDB

    def capped(table, side):
        out = table
        for name in table.explorable_attributes:
            column = table.column(name)
            if not isinstance(column, CategoricalColumn):
                continue
            domain = database.catalog(side).domain(name)
            keep = set(domain.frequent_values()[:max_values])
            values = [
                v if (v in keep or v is None) else None
                for v in column.to_list()
            ]
            out = out.replace_column(
                name, column_from_values(values, ColumnType.CATEGORICAL)
            )
        return out

    return SDB(
        capped(database.reviewers, Side.REVIEWER),
        capped(database.items, Side.ITEM),
        database.ratings,
        database.dimensions,
        scale=database.scale,
        user_key=database.key(Side.REVIEWER),
        item_key=database.key(Side.ITEM),
        name=f"{database.name}[≤{max_values} vals]",
    )
