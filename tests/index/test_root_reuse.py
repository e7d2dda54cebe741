"""The index keeps the root group's counts: opens reuse them exactly.

Every session opens at the root, and every CHANGE out of a one-pair group
scans the root as its sibling group, so the index keeps the root's
:class:`~repro.index.cubes.StepSlices` and containment families for its
whole lifetime.  Only integer counts are kept: a reused root must answer
byte for byte what a fresh engine answers, build each pair histogram once
however many threads open at once, and stay whole when a deadline cuts
its first build short.  Algorithm 1 reads the root's phase counts from
the same kept slices, so a second root generate counts nothing.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.engine import SubDEx, SubDExConfig
from repro.core.rating_maps import enumerate_map_specs
from repro.core.recommend import RecommenderConfig
from repro.index.verify import diff_recommendations, result_fingerprint
from repro.model.database import Side
from repro.model.groups import AVPair, SelectionCriteria
from repro.model.operations import Operation, OperationKind
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.server.protocol import step_to_json

ROOT = SelectionCriteria.root()


def _engine(db, **kwargs) -> SubDEx:
    return SubDEx(
        db,
        SubDExConfig(
            recommender=RecommenderConfig(max_values_per_attribute=3), **kwargs
        ),
    )


def _open(engine: SubDEx) -> dict:
    """One session's opening step with recommendations, minus its timing."""
    body = step_to_json(engine.session().step(None, with_recommendations=True))
    body.pop("elapsed_seconds")
    return body


def _cube_bytes(engine: SubDEx) -> int:
    return engine.index.stats()["cube_bytes"]


@pytest.fixture(scope="module")
def fresh_open(clean_db) -> tuple[dict, int]:
    """A fresh engine's opening step and the pair bytes it built."""
    engine = _engine(clean_db)
    return _open(engine), _cube_bytes(engine)


def test_second_open_reuses_root_counts(clean_db, fresh_open):
    expected, built = fresh_open
    engine = _engine(clean_db)
    assert _open(engine) == expected
    assert _cube_bytes(engine) == built > 0
    assert _open(engine) == expected
    assert _cube_bytes(engine) == built


def test_root_contexts_share_containment_family(clean_db):
    index = _engine(clean_db).index
    root = index.group(ROOT)
    family = index.neighborhood(root).containment(Side.ITEM, "cuisine")
    assert family is not None
    assert index.neighborhood(root).containment(Side.ITEM, "cuisine") is family
    assert index.step_slices(ROOT) is index.step_slices(ROOT)
    # any other group's family and scan state live with their step
    child = index.group(SelectionCriteria.of(item={"city": "NYC"}))
    other = index.neighborhood(child).containment(Side.ITEM, "cuisine")
    assert other is not index.neighborhood(child).containment(Side.ITEM, "cuisine")
    assert index.step_slices(child.criteria) is not index.step_slices(
        child.criteria
    )


def test_change_from_one_pair_group_reads_kept_root(clean_db):
    """A one-pair group's CHANGE siblings are root FILTERs, already counted."""
    engine, naive = _engine(clean_db), _engine(clean_db, use_index=False)
    session, oracle = engine.session(), naive.session()
    for each in (session, oracle):
        each.step(None, with_recommendations=True)
    root = engine.index.step_slices(ROOT)
    root_bytes, root_builds = root.nbytes, root.pair_builds
    nyc = AVPair(Side.ITEM, "city", "NYC")
    austin = AVPair(Side.ITEM, "city", "Austin")
    steps = (
        Operation(SelectionCriteria([nyc]), OperationKind.FILTER, added=(nyc,)),
        Operation(
            SelectionCriteria([austin]),
            OperationKind.CHANGE,
            added=(austin,),
            removed=(nyc,),
        ),
    )
    siblings = engine.index.stats()["candidates_sibling"]
    for operation in steps:
        got = session.step(operation, with_recommendations=True)
        want = oracle.step(operation, with_recommendations=True)
        diffs = diff_recommendations(want.recommendations, got.recommendations)
        assert not diffs, diffs
    assert engine.index.stats()["candidates_sibling"] > siblings
    assert (root.nbytes, root.pair_builds) == (root_bytes, root_builds)


def test_concurrent_opens_build_root_once(clean_db, fresh_open):
    expected, built = fresh_open
    engine = _engine(clean_db)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    bodies: dict[int, dict] = {}
    errors: list[BaseException] = []

    def work(worker: int) -> None:
        try:
            barrier.wait(timeout=30)
            bodies[worker] = _open(engine)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(bodies) == n_threads
    assert all(body == expected for body in bodies.values())
    assert _cube_bytes(engine) == built


@pytest.mark.parametrize("cut", [0, 1, 4])
def test_deadline_during_first_root_build(clean_db, fresh_open, cut):
    """An open cut after ``cut`` root pair builds leaves the root whole.

    ``cut == 0`` is an already-expired deadline.  Otherwise the deadline's
    clock runs out once the kept root slices have built ``cut`` pairs, so
    the open unwinds from the first cancellation point after them.
    """
    expected, built = fresh_open
    engine = _engine(clean_db)
    root = engine.index.step_slices(ROOT)
    started = False

    def clock() -> float:
        nonlocal started
        if not started:  # the deadline reads its start once
            started = True
            return 0.0
        return 2.0 if root.pair_builds >= cut else 0.0

    with pytest.raises(DeadlineExceeded):
        with deadline_scope(Deadline(1.0, clock=clock)):
            _open(engine)
    assert root.pair_builds >= cut
    assert _cube_bytes(engine) < built
    assert _open(engine) == expected
    # the cut open's pairs plus the next open's are each built once
    assert _cube_bytes(engine) == built


def _maps(engine: SubDEx) -> tuple:
    """The root's RM-Set under a fresh display history, as comparable data."""
    result = engine.rating_maps()
    return result_fingerprint(result), result.pruned


def _n_attributes(engine: SubDEx) -> int:
    return len(
        {(spec.side, spec.attribute) for spec in enumerate_map_specs(
            engine.database, ROOT
        )}
    )


@pytest.fixture(scope="module")
def fresh_maps(clean_db) -> tuple:
    return _maps(_engine(clean_db))


def test_root_phases_counted_once(clean_db, fresh_maps):
    """Algorithm 1 reads the root's phase counts from the kept slices."""
    engine = _engine(clean_db)
    root = engine.index.step_slices(ROOT)
    assert _maps(engine) == fresh_maps
    builds = root.phase_builds
    assert builds == _n_attributes(engine)
    assert _maps(engine) == fresh_maps
    _open(engine)
    _open(engine)
    assert root.phase_builds == builds


def test_concurrent_root_maps_count_each_attribute_once(clean_db, fresh_maps):
    engine = _engine(clean_db)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    answers: dict[int, tuple] = {}
    errors: list[BaseException] = []

    def work(worker: int) -> None:
        try:
            barrier.wait(timeout=30)
            answers[worker] = _maps(engine)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(answers) == n_threads
    assert all(answer == fresh_maps for answer in answers.values())
    assert engine.index.step_slices(ROOT).phase_builds == _n_attributes(engine)


@pytest.mark.parametrize("cut", [0, 1, 3])
def test_deadline_during_first_root_phase_build(clean_db, fresh_maps, cut):
    """Root maps cut after ``cut`` attributes' phase builds leave the root whole."""
    engine = _engine(clean_db)
    root = engine.index.step_slices(ROOT)
    started = False

    def clock() -> float:
        nonlocal started
        if not started:  # the deadline reads its start once
            started = True
            return 0.0
        return 2.0 if root.phase_builds >= cut else 0.0

    with pytest.raises(DeadlineExceeded):
        with deadline_scope(Deadline(1.0, clock=clock)):
            engine.rating_maps()
    assert root.phase_builds == cut
    assert _maps(engine) == fresh_maps
    assert root.phase_builds == _n_attributes(engine)
