"""Generated-input equivalence of the family routes on the anytime path.

Hypothesis draws 1–3-pair selections — categorical and multi-valued
pairs, missing values, empty cuisine sets, NaN scores, out-of-domain
values — and runs ``recommend_anytime`` through the naive oracle, the
indexed per-candidate path and the batched path on every ladder rung and
under a forced budget cut.  FILTER cubes, sibling (CHANGE/GENERALIZE)
cubes, containment families and residue candidates all sit in one scan
order here, so the lazy per-family kernel passes must leave every
snapshot, cut boundary and fingerprint exactly as the oracle has them.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SubDEx
from repro.anytime import QualityLadder, QualityRung
from repro.core.utility import SeenMaps
from repro.index.verify import diff_recommendations
from repro.model.database import Side
from repro.model.groups import AVPair, SelectionCriteria
from repro.model.operations import Operation, OperationKind

EVERYTHING = 10**6

ATTRIBUTES = (
    (Side.REVIEWER, "gender", "X"),
    (Side.REVIEWER, "age_group", "ancient"),
    (Side.REVIEWER, "occupation", "astronaut"),
    (Side.ITEM, "city", "Atlantis"),
    (Side.ITEM, "cuisine", "Haggis"),
)

MISSING = {"clean": 0.0, "missing": 0.35, "sparse": 0.6}


@lru_cache(maxsize=None)
def engines(name: str, db_factory, engine_factory) -> dict[str, SubDEx]:
    db = db_factory(seed=17, missing=MISSING[name], name=f"routes-{name}")
    return {
        "naive": engine_factory(db, use_index=False, batch=False),
        "indexed": engine_factory(db, use_index=True, batch=False),
        "batched": engine_factory(db, use_index=True, batch=True),
    }


@st.composite
def scenarios(draw, db_factory, engine_factory):
    """Engines, a 1–3-pair criteria and its candidate list."""
    name = draw(st.sampled_from(sorted(MISSING)))
    by_kind = engines(name, db_factory, engine_factory)
    database = by_kind["naive"].database
    chosen = draw(
        st.lists(
            st.sampled_from(ATTRIBUTES), min_size=1, max_size=3, unique=True
        )
    )
    pairs = []
    for side, attribute, outside in chosen:
        values = database.catalog(side).domain(attribute).frequent_values()
        pairs.append(
            AVPair(side, attribute, draw(st.sampled_from(values + (outside,))))
        )
    criteria = SelectionCriteria(pairs)
    operations = by_kind["naive"].recommender.candidate_operations(criteria)
    # an out-of-domain CHANGE of the first pair: an empty sibling member
    old = pairs[0]
    new = AVPair(old.side, old.attribute, chosen[0][2])
    if old != new:
        operations.append(
            Operation(
                criteria.with_pair(new),
                OperationKind.CHANGE,
                added=(new,),
                removed=(old,),
            )
        )
    return by_kind, criteria, operations


def _seen(engine: SubDEx) -> SeenMaps:
    return SeenMaps(
        engine.database.dimensions,
        n_attributes=len(engine.database.grouping_attributes()),
    )


def _assert_agree(results: dict, label) -> None:
    oracle = results.pop("naive")
    for kind, result in results.items():
        diffs = diff_recommendations(
            oracle.recommendations, result.recommendations
        )
        assert not diffs, (kind, label, diffs[:5])
        for field in ("candidates_scanned", "candidates_scored", "snapshots"):
            assert getattr(result.completeness, field) == getattr(
                oracle.completeness, field
            ), (kind, label, field)
        assert result.completeness.complete == oracle.completeness.complete


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_anytime_routes_match_the_oracle(
    batch_db_factory, batch_engine_factory, data
):
    by_kind, criteria, operations = data.draw(
        scenarios(batch_db_factory, batch_engine_factory)
    )
    ladder = QualityLadder()
    for rung in QualityRung:
        plan = ladder.plan(rung)
        if plan.use_cached:
            continue
        _assert_agree(
            {
                kind: engine.recommender.recommend_anytime(
                    criteria,
                    _seen(engine),
                    o=EVERYTHING,
                    plan=plan,
                    candidates=operations,
                )
                for kind, engine in by_kind.items()
            },
            rung,
        )
    cut = data.draw(st.integers(min_value=0, max_value=4), label="cut")
    _assert_agree(
        {
            kind: engine.recommender.recommend_anytime(
                criteria,
                _seen(engine),
                candidates=operations,
                force_cut_after=cut,
            )
            for kind, engine in by_kind.items()
        },
        f"force_cut_after={cut}",
    )
