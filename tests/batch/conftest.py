"""Fixtures for the family-batched scoring suite.

The equivalence tests run the same request through the naive
full-pipeline oracle and the batched (indexed) engine and demand *exact*
fingerprint equality, across databases with missing grouping values,
multi-valued attributes, NaN rating scores and empty groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SubDEx, SubDExConfig, SubjectiveDatabase
from repro.core.recommend import RecommenderConfig
from repro.db import Table


def make_db(
    seed: int = 0,
    n_users: int = 60,
    n_items: int = 24,
    n_ratings: int = 800,
    missing: float = 0.0,
    name: str = "batchdb",
) -> SubjectiveDatabase:
    """A deterministic database; ``missing`` drops values and rating scores."""
    rng = np.random.default_rng(seed)

    def drop(value):
        return None if missing and rng.random() < missing else value

    users = Table.from_columns(
        {
            "user_id": list(range(n_users)),
            "gender": [drop(str(rng.choice(["M", "F"]))) for __ in range(n_users)],
            "age_group": [
                drop(str(rng.choice(["young", "adult", "senior"])))
                for __ in range(n_users)
            ],
            "occupation": [
                drop(str(rng.choice(["student", "artist", "lawyer"])))
                for __ in range(n_users)
            ],
        },
        explorable={"user_id": False},
    )
    items = Table.from_columns(
        {
            "item_id": list(range(n_items)),
            "city": [
                drop(str(rng.choice(["NYC", "Austin", "Detroit"])))
                for __ in range(n_items)
            ],
            # multi-valued: FILTERs on cuisine take the residue (rows) path
            "cuisine": [
                frozenset()
                if missing and rng.random() < missing
                else frozenset(
                    rng.choice(
                        ["Pizza", "Sushi", "Tacos", "Burgers"],
                        size=int(rng.integers(1, 3)),
                        replace=False,
                    )
                )
                for __ in range(n_items)
            ],
        },
        explorable={"item_id": False},
    )
    overall = rng.integers(1, 6, n_ratings).astype(float)
    food = rng.integers(1, 6, n_ratings).astype(float)
    if missing:
        overall[rng.random(n_ratings) < missing / 2] = np.nan
        food[rng.random(n_ratings) < missing / 2] = np.nan
    ratings = Table.from_columns(
        {
            "user_id": rng.integers(0, n_users, n_ratings).tolist(),
            "item_id": rng.integers(0, n_items, n_ratings).tolist(),
            "overall": overall.tolist(),
            "food": food.tolist(),
        },
        explorable={"user_id": False, "item_id": False},
    )
    return SubjectiveDatabase(
        users, items, ratings, ("overall", "food"), scale=5, name=name
    )


def build_engine(
    db: SubjectiveDatabase,
    *,
    use_index: bool = True,
    **recommender_kwargs,
) -> SubDEx:
    recommender_kwargs.setdefault("max_values_per_attribute", 3)
    return SubDEx(
        db,
        SubDExConfig(
            use_index=use_index,
            recommender=RecommenderConfig(**recommender_kwargs),
        ),
    )


@pytest.fixture(scope="session")
def batch_db_factory():
    return make_db


@pytest.fixture(scope="session")
def batch_engine_factory():
    return build_engine
