"""Generated-input equivalence of every statistics route.

Hypothesis draws 1–3-pair selections over the synthetic databases —
categorical, numeric and multi-valued pairs, values that are missing for
some entities, empty multi-valued sets, and values outside the active
domain — and scores the whole neighbourhood (plus out-of-domain CHANGE
and FILTER candidates the enumerator never emits) through four engines:
the naive full-scan oracle, the indexed per-candidate path, the batched
path, and the batched path with ``max_cube_cells=0`` (every family over
budget, so every candidate falls back to the posting rows).  All four
must agree bit for bit on every scored candidate, not just the top-o.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SubDEx, SubDExConfig, SubjectiveDatabase
from repro.core.recommend import RecommenderConfig
from repro.core.utility import SeenMaps
from repro.db import Table
from repro.index.facade import IndexedDatabase
from repro.index.verify import diff_recommendations
from repro.model.database import Side
from repro.model.groups import AVPair, SelectionCriteria
from repro.model.operations import Operation, OperationKind

EVERYTHING = 10**6

#: (side, attribute, out-of-domain value) of every explorable attribute
ATTRIBUTES = (
    (Side.REVIEWER, "gender", "X"),
    (Side.REVIEWER, "age", 999),
    (Side.REVIEWER, "occupation", "astronaut"),
    (Side.ITEM, "city", "Atlantis"),
    (Side.ITEM, "cuisine", "Haggis"),
    (Side.ITEM, "price", 42),
)

DATABASES = {
    "clean": dict(seed=3),
    "missing": dict(seed=7, missing=0.3),
    "sparse": dict(seed=9, missing=0.6),
}


@lru_cache(maxsize=None)
def engines(name: str, factory) -> dict[str, SubDEx]:
    """The four engines over one database (built once per module)."""
    db = factory(name=name, **DATABASES[name])

    def build(use_index: bool, batch: bool) -> SubDEx:
        return SubDEx(
            db,
            SubDExConfig(
                use_index=use_index,
                batch_scoring=batch,
                recommender=RecommenderConfig(max_values_per_attribute=3),
            ),
        )

    zero = build(True, True)
    zero._index = IndexedDatabase(db, max_cube_cells=0)
    zero.recommender._index = zero._index
    return {
        "naive": build(False, False),
        "indexed": build(True, False),
        "batched": build(True, True),
        "zero_budget": zero,
    }


def domain(engine: SubDEx, side: Side, attribute: str) -> tuple:
    return engine.database.catalog(side).domain(attribute).frequent_values()


@st.composite
def selections(draw, factory):
    """A database name and a 1–3-pair criteria over it."""
    name = draw(st.sampled_from(sorted(DATABASES)))
    oracle = engines(name, factory)["naive"]
    chosen = draw(
        st.lists(
            st.sampled_from(ATTRIBUTES), min_size=1, max_size=3, unique=True
        )
    )
    pairs = []
    for side, attribute, outside in chosen:
        values = domain(oracle, side, attribute)
        # mostly in-domain values (non-empty parents), sometimes not
        value = draw(st.sampled_from(values + (outside,)))
        pairs.append(AVPair(side, attribute, value))
    return name, SelectionCriteria(pairs)


def out_of_domain_candidates(criteria: SelectionCriteria) -> list[Operation]:
    """CHANGEs and FILTERs to values no entity holds (empty candidates)."""
    operations = []
    for side, attribute, outside in ATTRIBUTES:
        new = AVPair(side, attribute, outside)
        old = next(
            (p for p in criteria if (p.side, p.attribute) == (side, attribute)),
            None,
        )
        if old is None:
            operations.append(
                Operation(
                    criteria.with_pair(new), OperationKind.FILTER, added=(new,)
                )
            )
        elif old.value != outside:
            operations.append(
                Operation(
                    criteria.with_pair(new),
                    OperationKind.CHANGE,
                    added=(new,),
                    removed=(old,),
                )
            )
    return operations


def neighbourhood(
    engine: SubDEx, criteria: SelectionCriteria
) -> tuple[list[Operation], SeenMaps]:
    operations = engine.recommender.candidate_operations(criteria)
    seen = SeenMaps(
        engine.database.dimensions,
        n_attributes=len(engine.database.grouping_attributes()),
    )
    return operations + out_of_domain_candidates(criteria), seen


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_route_matches_the_oracle(db_factory, data):
    name, criteria = data.draw(selections(db_factory))
    by_kind = engines(name, db_factory)
    operations, seen = neighbourhood(by_kind["naive"], criteria)
    results = {
        kind: engine.recommender.recommend(
            criteria, seen, o=EVERYTHING, candidates=operations
        )
        for kind, engine in by_kind.items()
    }
    oracle = results.pop("naive")
    for kind, result in results.items():
        diffs = diff_recommendations(oracle, result)
        assert not diffs, (kind, criteria.describe(), diffs[:5])


def test_equal_size_change_sibling_is_not_redundant():
    """A CHANGE sibling as large as the parent is still a new group.

    FILTER children are subsets of the parent, so equal size means equal
    rows; CHANGE siblings are disjoint from it, so equal size means
    nothing.  Two cities with identical rating counts pin the difference.
    """
    rng = np.random.default_rng(0)
    users = Table.from_columns(
        {
            "user_id": list(range(8)),
            "gender": ["F", "M"] * 4,
        },
        explorable={"user_id": False},
    )
    items = Table.from_columns(
        {"item_id": list(range(4)), "city": ["NYC", "NYC", "Austin", "Austin"]},
        explorable={"item_id": False},
    )
    n = 64  # 16 ratings per item: both cities hold exactly 32
    ratings = Table.from_columns(
        {
            "user_id": rng.integers(0, 8, n).tolist(),
            "item_id": np.repeat(np.arange(4), n // 4).tolist(),
            "overall": rng.integers(1, 6, n).astype(float).tolist(),
        },
        explorable={"user_id": False, "item_id": False},
    )
    db = SubjectiveDatabase(users, items, ratings, ("overall",), scale=5)
    criteria = SelectionCriteria.of(item={"city": "NYC"})
    results = {}
    for kind, (use_index, batch) in {
        "naive": (False, False),
        "indexed": (True, False),
        "batched": (True, True),
    }.items():
        engine = SubDEx(
            db, SubDExConfig(use_index=use_index, batch_scoring=batch)
        )
        results[kind] = engine.recommend(criteria, o=EVERYTHING)
    change = "item.city=Austin"
    assert change in {s.target.describe() for s in results["naive"]}
    for kind in ("indexed", "batched"):
        assert not diff_recommendations(results["naive"], results[kind]), kind
