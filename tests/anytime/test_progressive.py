"""Progressive (anytime) recommendation semantics against the full oracle.

For every ladder rung the returned recommendations are drawn from the
full-run oracle universe, with a completeness descriptor that tells the
truth; a budget cut returns exactly the full run's best over the scanned
prefix — across databases with missing values and empty groups.
"""

from __future__ import annotations

import time

import pytest

from repro import SubDEx, SubDExConfig
from repro.anytime import QualityLadder, QualityRung, budget_deadline
from repro.core.recommend import RecommenderConfig

EVERYTHING = 10**6  # an o larger than any candidate universe here


def _engine(db) -> SubDEx:
    return SubDEx(
        db,
        SubDExConfig(recommender=RecommenderConfig(max_values_per_attribute=3)),
    )


def _keys(scored) -> list[tuple[str, float]]:
    return [(s.describe(), s.utility) for s in scored]


def _targets(scored) -> set[str]:
    return {s.operation.target.describe() for s in scored}


def _check_invariants(completeness) -> None:
    assert 0 <= completeness.candidates_scored <= completeness.candidates_scanned
    assert completeness.candidates_scanned <= completeness.candidates_total
    assert 0.0 <= completeness.fraction_scanned <= 1.0
    assert 0.0 < completeness.pruning_confidence <= 1.0
    assert completeness.complete == (
        completeness.candidates_scanned == completeness.candidates_total
        and not completeness.budget_cut
    )


# -- unbudgeted equivalence ---------------------------------------------------

def test_unbudgeted_run_matches_plain_recommendations(tiny_engine):
    session = tiny_engine.session()
    session.step(with_recommendations=False)
    plain = session.recommendations()
    result = session.recommendations_anytime()
    assert not result.is_partial
    assert result.completeness.rung is QualityRung.FULL
    assert result.completeness.complete
    assert not result.completeness.budget_cut
    # no budget and no forced cut: the whole neighbourhood is one block
    assert result.completeness.snapshots == 1
    assert _keys(result.recommendations) == _keys(plain)
    _check_invariants(result.completeness)


def test_unbudgeted_run_matches_stored_step_recommendations(tiny_engine):
    """Refinement jobs rely on this: a full recompute == the stored answer."""
    session = tiny_engine.session()
    record = session.step(with_recommendations=True)
    result = session.recommendations_anytime()
    assert result.completeness.complete
    assert _keys(result.recommendations) == _keys(record.recommendations)


# -- budget cuts --------------------------------------------------------------

def _scan_order(session) -> list:
    """The candidates ``recommendations_anytime`` scans, in scan order."""
    visited = {s.criteria for s in session.steps} | {session.criteria}
    operations = session.recommender.candidate_operations(session.criteria)
    kept = [op for op in operations if op.target not in visited]
    return kept or operations


def _prefix_top(full, operations, scanned: int, o: int) -> list:
    """The full run's top-o restricted to the first ``scanned`` candidates."""
    prefix = {op.target for op in operations[:scanned]}
    return [s for s in full.recommendations if s.target in prefix][:o]


def test_forced_cut_yields_honest_partial(tiny_engine):
    """A cut returns the best of what it scanned — exactly.

    A best-so-far top-o over a scanned prefix is *not* in general a
    subset of the final top-o (later candidates displace earlier ones).
    The exact invariant: the cut equals the top-o, in the same
    ``(-utility, description)`` order and with the same utilities, of the
    full run's scored candidates restricted to the scanned prefix.
    """
    session = tiny_engine.session()
    session.step()
    o = tiny_engine.recommender.config.o
    full = session.recommendations_anytime(o=EVERYTHING)
    cut = session.recommendations_anytime(force_cut_after=1)
    assert cut.is_partial
    assert cut.completeness.budget_cut
    assert cut.completeness.snapshots == 1
    # a forced cut scans in blocks of config.workers() candidates
    assert cut.completeness.candidates_scanned == (
        tiny_engine.recommender.config.workers()
    )
    assert 0 < cut.completeness.candidates_scanned
    assert cut.completeness.candidates_scanned < cut.completeness.candidates_total
    assert cut.completeness.candidates_total == full.completeness.candidates_total
    expected = _prefix_top(
        full, _scan_order(session), cut.completeness.candidates_scanned, o
    )
    assert expected
    assert _keys(cut.recommendations) == _keys(expected)
    _check_invariants(cut.completeness)


def test_cut_before_any_work_returns_empty_partial(tiny_engine):
    session = tiny_engine.session()
    session.step()
    result = session.recommendations_anytime(force_cut_after=0)
    assert result.is_partial
    assert result.completeness.budget_cut
    assert result.completeness.candidates_scanned == 0
    assert result.completeness.snapshots == 0
    assert len(result) == 0
    _check_invariants(result.completeness)


def test_expired_budget_cuts_at_first_boundary(tiny_engine):
    session = tiny_engine.session()
    session.step()
    budget = budget_deadline(1)
    time.sleep(0.005)  # the soft budget is already spent when the loop starts
    result = session.recommendations_anytime(budget=budget)
    assert result.is_partial
    assert result.completeness.budget_cut
    assert result.completeness.candidates_scanned == 0


# -- every rung stays inside the full-run oracle ------------------------------

@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_every_rung_is_subset_of_oracle(db_factory, missing):
    engine = _engine(db_factory(seed=3, missing=missing, name=f"m{missing}"))
    session = engine.session()
    session.step()
    oracle = session.recommendations(o=EVERYTHING)
    universe = _targets(oracle)
    assert universe  # the oracle itself found candidates
    ladder = QualityLadder()
    for rung in QualityRung:
        plan = ladder.plan(rung)
        if plan.use_cached:
            continue
        result = session.recommendations_anytime(plan=plan, o=EVERYTHING)
        _check_invariants(result.completeness)
        assert result.completeness.rung is rung
        assert _targets(result.recommendations) <= universe, rung
        if plan.candidate_cap is not None:
            assert result.completeness.candidates_scanned <= plan.candidate_cap
        if rung is QualityRung.FULL:
            assert result.completeness.complete
            assert _keys(result.recommendations) == _keys(oracle)


def test_cached_rung_scores_nothing(tiny_engine):
    session = tiny_engine.session()
    session.step()
    plan = QualityLadder().plan(QualityRung.CACHED)
    result = session.recommendations_anytime(plan=plan)
    assert result.completeness.candidates_scanned == 0
    assert len(result) == 0
    assert result.is_partial


def test_sparse_database_still_answers(db_factory):
    """Missing values and empty groups never crash the anytime path."""
    engine = _engine(db_factory(seed=9, missing=0.6, name="sparse"))
    session = engine.session()
    session.step()
    result = session.recommendations_anytime()
    _check_invariants(result.completeness)
    assert result.completeness.complete
