"""Fixtures for the cluster suite: synthetic databases with one of every
column shape (missing values, multi-valued attributes, numeric attributes),
generated selection criteria for the scan oracles, and helpers for
comparing HTTP payloads modulo volatile timing fields."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SubjectiveDatabase
from repro.db import Table
from repro.model.groups import SelectionCriteria

CITIES = ["NYC", "Austin", "Detroit", "Reno"]
GENRES = ["Pizza", "Sushi", "Tacos", "Burgers", "Ramen"]


def make_db(
    seed: int = 0,
    n_users: int = 50,
    n_items: int = 20,
    n_ratings: int = 700,
    missing: float = 0.0,
    name: str = "synthetic",
) -> SubjectiveDatabase:
    """A deterministic subjective database with one of every column kind.

    ``missing`` drops that fraction of attribute values (categorical and
    numeric), empties some multi-valued sets, and knocks out a few rating
    scores so the invalid-score path crosses the shard boundary too.
    """
    rng = np.random.default_rng(seed)

    def drop(value):
        return None if missing and rng.random() < missing else value

    users = Table.from_columns(
        {
            "user_id": list(range(n_users)),
            "gender": [drop(str(rng.choice(["M", "F"]))) for __ in range(n_users)],
            "age": [drop(int(rng.integers(18, 80))) for __ in range(n_users)],
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
            "city": [drop(str(rng.choice(CITIES))) for __ in range(n_items)],
            "cuisine": [
                frozenset()
                if missing and rng.random() < missing
                else frozenset(
                    rng.choice(GENRES, size=int(rng.integers(1, 3)), replace=False)
                )
                for __ in range(n_items)
            ],
            "price": [drop(int(rng.integers(1, 5))) for __ in range(n_items)],
        },
        explorable={"item_id": False},
    )
    overall = rng.integers(1, 6, n_ratings).astype(float)
    food = rng.integers(1, 6, n_ratings).astype(float)
    if missing:
        overall[rng.random(n_ratings) < missing / 2] = np.nan
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


#: The group shapes the scan oracles generate (see :func:`make_criteria`).
CRITERIA_KINDS = ("root", "one-pair", "two-pair", "multi-valued", "empty")


def make_criteria(db: SubjectiveDatabase, kind: str, seed: int) -> SelectionCriteria:
    """A seeded selection of one shape over a :func:`make_db` database.

    Values are drawn from the database's own columns, so ``one-pair``,
    ``two-pair`` and ``multi-valued`` (a cuisine, plus a reviewer pair)
    groups are usually non-empty; ``empty`` pairs a real reviewer value
    with a city no item has.
    """
    rng = np.random.default_rng(seed)

    def draw(table, attribute):
        values = sorted(
            {v for v in table.column(attribute).to_list() if v is not None}
        )
        return values[int(rng.integers(len(values)))]

    attribute = ("gender", "occupation")[int(rng.integers(2))]
    reviewer = {attribute: draw(db.reviewers, attribute)}
    if kind == "root":
        return SelectionCriteria.root()
    if kind == "one-pair":
        if rng.random() < 0.5:
            return SelectionCriteria.of(reviewer=reviewer)
        return SelectionCriteria.of(item={"city": draw(db.items, "city")})
    if kind == "two-pair":
        return SelectionCriteria.of(
            reviewer=reviewer, item={"city": draw(db.items, "city")}
        )
    if kind == "multi-valued":
        cuisine = GENRES[int(rng.integers(len(GENRES)))]
        return SelectionCriteria.of(reviewer=reviewer, item={"cuisine": cuisine})
    if kind == "empty":
        return SelectionCriteria.of(reviewer=reviewer, item={"city": "Atlantis"})
    raise ValueError(f"unknown criteria kind {kind!r}")


#: Timing fields that legitimately differ between two otherwise
#: byte-identical deployments.
VOLATILE_KEYS = frozenset(
    {"elapsed_seconds", "created_at", "idle_seconds", "session_id"}
)


def strip_volatile(payload):
    """Recursively drop timing/identity fields for payload comparison."""
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value)
            for key, value in payload.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [strip_volatile(item) for item in payload]
    return payload


@pytest.fixture(scope="session")
def db_factory():
    return make_db


@pytest.fixture()
def strip():
    return strip_volatile


@pytest.fixture(scope="session")
def criteria_factory():
    return make_criteria


@pytest.fixture(scope="session")
def criteria_kinds():
    return CRITERIA_KINDS


@pytest.fixture(
    params=[
        pytest.param((kind, seed), id=f"{kind}-{seed}")
        for kind in CRITERIA_KINDS
        for seed in range(3)
    ]
)
def criteria_case(request):
    """One generated ``(kind, seed)`` case for :func:`make_criteria`."""
    return request.param
