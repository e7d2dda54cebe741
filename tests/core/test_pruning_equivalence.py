"""Generated-input equivalence of the array pruners and kernel snapshots.

* The array ``ConfidenceIntervalPruner`` / ``MABPruner`` / ``CombinedPruner``
  drop exactly what the dict-based reference implementations
  (``reference_pruning.py``) drop, phase after phase, on generated snapshot
  sequences with tied means, ``k' >= n`` and CI drops feeding SAR.
* A kernel-scored phase snapshot (one fused ``batch_family_scores`` pass)
  equals ``score_candidate_set`` over the scalar scorer bit for bit, on
  generated small databases, at every phase before the last — where the
  group is larger than the rows seen so far.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_pruning as reference
from repro import SubjectiveDatabase
from repro.core.generator import GeneratorConfig, RMSetGenerator
from repro.core.interestingness import Criterion, CriterionScores, InterestingnessScorer
from repro.core.phases import PhasedExecution, PhaseSnapshot
from repro.core.pruning import CombinedPruner, ConfidenceIntervalPruner, MABPruner
from repro.core.rating_maps import RatingMapSpec, enumerate_map_specs
from repro.core.utility import ScoredCandidate, SeenMaps
from repro.db import Table
from repro.model import RatingGroup, SelectionCriteria
from repro.model.database import Side
from repro.stats import SuccessiveAcceptsRejects

CRITERIA = (
    Criterion.CONCISENESS,
    Criterion.AGREEMENT,
    Criterion.PECULIARITY_SELF,
    Criterion.PECULIARITY_GLOBAL,
)
#: few distinct values, so means, bounds and weights tie often
TIED = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
VALUES = TIED | st.floats(0.0, 1.0)
WEIGHTS = st.sampled_from([1.0, 0.75, 0.5, 2 / 3]) | st.floats(0.0, 1.0)

PRUNERS = {
    "ci": (ConfidenceIntervalPruner, reference.ConfidenceIntervalPruner),
    "mab": (lambda delta: MABPruner(), lambda delta: reference.MABPruner()),
    "combined": (CombinedPruner, reference.CombinedPruner),
}

SPECS = st.lists(
    st.builds(
        RatingMapSpec,
        st.sampled_from(list(Side)),
        st.sampled_from(["age", "city", "cuisine", "gender", "price"]),
        st.sampled_from(["food", "overall", "service"]),
    ),
    min_size=1,
    max_size=14,
    unique=True,
)


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(sorted(PRUNERS)),
    specs=SPECS,
    k_prime=st.integers(1, 16),
    n_phases=st.integers(2, 10),
    n_total=st.integers(10, 5000),
    delta=st.sampled_from([0.05, 0.3, 0.9]),
    n_criteria=st.integers(1, 4),
    data=st.data(),
)
def test_array_pruners_match_reference(
    kind, specs, k_prime, n_phases, n_total, delta, n_criteria, data
):
    make_new, make_ref = PRUNERS[kind]
    new, ref = make_new(delta), make_ref(delta)
    new.begin(specs, k_prime)
    ref.begin(specs, k_prime)
    criteria = CRITERIA[:n_criteria]
    bounds = np.linspace(0, n_total, n_phases + 1, dtype=np.int64)
    active = list(specs)
    for phase in range(1, n_phases):
        scores = {}
        for spec in active:
            normalized = {c: data.draw(VALUES) for c in criteria}
            scores[spec] = ScoredCandidate(
                CriterionScores.zero(),
                normalized,
                max(normalized.values()),
                data.draw(WEIGHTS),
            )
        snapshot = PhaseSnapshot(phase, n_phases, int(bounds[phase]), n_total, scores)
        dropped = new.prune(snapshot)
        assert dropped == ref.prune(snapshot), f"phase {phase}"
        active = [spec for spec in active if spec not in dropped]


@settings(max_examples=200, deadline=None)
@given(
    arms=st.lists(
        st.text("abc", min_size=1, max_size=3), min_size=1, max_size=12, unique=True
    ),
    k=st.integers(1, 8),
    data=st.data(),
)
def test_sar_decisions_match_reference(arms, k, data):
    """Every accept/reject decision, tied means included, step by step."""
    new = SuccessiveAcceptsRejects(arms, k)
    ref = reference.SuccessiveAcceptsRejects(arms, k)
    while not ref.finished:
        # an arm missing from the means counts as mean 0
        missing = data.draw(st.sets(st.sampled_from(arms), max_size=2))
        means = {arm: data.draw(TIED) for arm in arms if arm not in missing}
        assert new.step(means) == ref.step(means)
        assert (new.active, new.accepted, new.rejected) == (
            ref.active,
            ref.accepted,
            ref.rejected,
        )
    assert new.finished and new.step({}) is None


def test_ci_equal_upper_bounds_break_by_spec_order():
    """Both leaders clamp to hi = 1; spec order puts "a" (lo 0.96) in the
    top-1, not "b" (lo 0.94), so "c" (hi 0.95) falls below the top's
    lowest lower bound.  The snapshot lists "b" first."""
    scores = {
        name: ScoredCandidate(
            CriterionScores.zero(), {Criterion.AGREEMENT: value}, value, 1.0
        )
        for name, value in (("b", 0.98), ("a", 1.0), ("c", 0.91))
    }
    snapshot = PhaseSnapshot(9, 10, rows_seen=95, n_total=100, scores=scores)
    for pruner in (
        ConfidenceIntervalPruner(0.5),
        reference.ConfidenceIntervalPruner(0.5),
    ):
        pruner.begin(["c", "b", "a"], k_prime=1)
        assert pruner.prune(snapshot) == {"c"}


def test_tied_sar_means_break_by_str_rank():
    """Equal means: SAR accepts the highest ``str`` and rejects the lowest."""
    means = {"b": 0.5, "a": 0.5, "d": 0.5, "c": 0.5}
    for k in (1, 2, 3):
        new = MABPruner()
        ref = reference.MABPruner()
        new.begin(list(means), k)
        ref.begin(list(means), k)
        snapshot = PhaseSnapshot(
            5,
            10,
            50,
            100,
            {
                arm: ScoredCandidate(CriterionScores.zero(), {}, mean, 1.0)
                for arm, mean in means.items()
            },
            specs=tuple(means),
            normalized=np.zeros((4, 1)),
            weights=np.ones(4),
            dw=np.array(list(means.values())),
        )
        assert new.prune(snapshot) == ref.prune(snapshot)


@st.composite
def small_databases(draw) -> SubjectiveDatabase:
    """A few reviewers and items, missing attribute values, NaN scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_users = draw(st.integers(2, 12))
    n_items = draw(st.integers(2, 8))
    n_ratings = draw(st.integers(12, 180))
    missing = draw(st.sampled_from([0.0, 0.2]))
    nan_share = draw(st.sampled_from([0.0, 0.1]))

    def categorical(values, n):
        return [
            None if rng.random() < missing else str(rng.choice(values))
            for __ in range(n)
        ]

    users = Table.from_columns(
        {
            "user_id": list(range(n_users)),
            "gender": categorical(["M", "F"], n_users),
            "age": [float(rng.integers(18, 22)) for __ in range(n_users)],
            "occupation": categorical(["student", "artist", "lawyer"], n_users),
        },
        explorable={"user_id": False},
    )
    items = Table.from_columns(
        {
            "item_id": list(range(n_items)),
            "city": categorical(["NYC", "Austin", "Detroit"], n_items),
            "cuisine": [
                frozenset(
                    rng.choice(
                        ["Pizza", "Sushi", "Tacos"],
                        size=int(rng.integers(1, 3)),
                        replace=False,
                    )
                )
                for __ in range(n_items)
            ],
        },
        explorable={"item_id": False},
    )

    def scores():
        values = rng.integers(1, 6, n_ratings).astype(float)
        values[rng.random(n_ratings) < nan_share] = np.nan
        return values.tolist()

    ratings = Table.from_columns(
        {
            "user_id": rng.integers(0, n_users, n_ratings).tolist(),
            "item_id": rng.integers(0, n_items, n_ratings).tolist(),
            "overall": scores(),
            "food": scores(),
        },
        explorable={"user_id": False, "item_id": False},
    )
    return SubjectiveDatabase(
        users, items, ratings, ("overall", "food"), scale=5, name="generated"
    )


class _Recorder:
    """A pruner that keeps every snapshot and drops nothing."""

    def __init__(self) -> None:
        self.snapshots: list[PhaseSnapshot] = []

    def begin(self, specs, k_prime) -> None:
        self.snapshots.clear()

    def prune(self, snapshot):
        self.snapshots.append(snapshot)
        return set()


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    database=small_databases(),
    n_phases=st.integers(2, 10),
    shuffle_seed=st.integers(0, 50),
    warm=st.booleans(),
)
def test_kernel_snapshots_match_scalar_scores(database, n_phases, shuffle_seed, warm):
    config = GeneratorConfig()
    utility = config.utility
    group = RatingGroup(database, SelectionCriteria.root())
    seen = SeenMaps(database.dimensions)
    if warm:  # seen maps: global peculiarity and DW weights come into play
        for rating_map in RMSetGenerator(config).generate(group, seen).selected:
            seen.add(rating_map)
    specs = tuple(enumerate_map_specs(database, group.criteria))
    scorer = InterestingnessScorer(
        dispersion=utility.dispersion,
        peculiarity=utility.peculiarity,
        global_use_min=utility.global_use_min,
        min_support=utility.min_support,
    )
    runs = []
    for kernel in (False, True):
        recorder = _Recorder()
        execution = PhasedExecution(
            group,
            specs,
            seen,
            utility,
            scorer,
            n_phases=n_phases,
            shuffle_seed=shuffle_seed,
            kernel=kernel,
        )
        runs.append((recorder, execution.run(recorder, k_prime=1)))
    (scalar, scalar_result), (fused, fused_result) = runs
    assert len(fused.snapshots) == len(scalar.snapshots)
    for expected, got in zip(scalar.snapshots, fused.snapshots):
        assert got.rows_seen < len(group)
        assert got.specs == expected.specs
        assert _bits(got.dw) == _bits(expected.dw)
        assert _bits(got.normalized) == _bits(expected.normalized)
        assert _bits(got.weights) == _bits(expected.weights)
    assert [rm.spec for rm in fused_result.ranked] == [
        rm.spec for rm in scalar_result.ranked
    ]
    for spec, scored in scalar_result.scores.items():
        assert fused_result.scores[spec] == scored
        assert fused_result.scores[spec].dw_utility == scored.dw_utility


def test_default_generate_never_calls_the_scalar_scorer(tiny_db, monkeypatch):
    """The default configuration scores phases and survivors in the kernel;
    an ablation configuration still goes through the scalar scorer."""
    calls = []
    score = InterestingnessScorer.score

    def counted(self, *args, **kwargs):
        calls.append(1)
        return score(self, *args, **kwargs)

    monkeypatch.setattr(InterestingnessScorer, "score", counted)
    group = RatingGroup(tiny_db, SelectionCriteria.root())
    seen = SeenMaps(tiny_db.dimensions)
    generator = RMSetGenerator()
    first = generator.generate(group, seen)
    assert first.selected and first.pruned
    for rating_map in first.selected:
        seen.add(rating_map)
    assert generator.generate(group, seen).selected
    assert calls == []
    RMSetGenerator(GeneratorConfig(diversity_only=True)).generate(group, seen)
    assert calls
