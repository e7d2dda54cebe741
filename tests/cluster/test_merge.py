"""The stateless scan oracle: index counts are the group's exact counts.

``POST /cluster/maps`` runs the ``maps.scan`` op, which finalises one
group's maps from one vectorised pass over the group's rows (the
bincount behind the index's ``parent_counts``) with
:func:`preview_generator`.  ``direct_counts`` over ``RatingGroup.rows`` —
a plain table scan — is the reference: the index counts must equal it
matrix for matrix, the op's body must not depend on whether the engine
has an index or reads a shared-memory copy of the database, and its maps
must equal a single-phase, unpruned ``generate`` of the same group.
Count matrices are additive over disjoint row sets (what ``delta_counts``
relies on), so counts summed over reviewer partitions of a group must
equal the index's counts and finalise to the same result as ``generate``.
Criteria are generated per shape (root, one pair, two pairs, a
multi-valued attribute, an empty group) from seeded draws over sparse
data: missing values, NaN scores, empty multi-valued sets."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.partition import attach_database, share_database
from repro.cluster.shm import SegmentRegistry
from repro.core.caching import CachingEngine
from repro.core.engine import SubDEx, SubDExConfig
from repro.core.generator import RMSetGenerator
from repro.core.rating_maps import enumerate_map_specs
from repro.core.utility import SeenMaps
from repro.index.delta import direct_counts
from repro.index.facade import IndexedDatabase
from repro.index.verify import result_fingerprint
from repro.model.database import Side
from repro.model.groups import RatingGroup, SelectionCriteria
from repro.server.app import SessionService, preview_generator
from repro.server.protocol import (
    ProtocolError,
    criteria_to_json,
    rating_map_to_json,
)
from repro.server.registry import SessionRegistry


@pytest.fixture(scope="module")
def sparse_db(db_factory):
    """Missing categorical/numeric values, NaN scores, empty cuisine sets."""
    return db_factory(seed=11, missing=0.35, name="sparse")


CRITERIA = [
    pytest.param(SelectionCriteria.root(), id="root"),
    pytest.param(SelectionCriteria.of(reviewer={"gender": "M"}), id="reviewer"),
    pytest.param(SelectionCriteria.of(item={"city": "NYC"}), id="item"),
    pytest.param(
        SelectionCriteria.of(
            reviewer={"occupation": "student"}, item={"cuisine": "Pizza"}
        ),
        id="both-sides-multi-valued",
    ),
]


def _partitioned_counts(db, criteria, n_parts):
    """Per-spec counts summed over ``n_parts`` reviewer partitions.

    A record lands in part ``reviewer_row % n_parts``, so the parts are
    disjoint and cover the group's rows; the group size is summed too.
    """
    rows = RatingGroup(db, criteria).rows
    part_of = db.entity_rows_for_ratings(Side.REVIEWER)[rows] % n_parts
    parts = [rows[part_of == part] for part in range(n_parts)]
    specs = tuple(enumerate_map_specs(db, criteria))
    totals = {
        spec: sum(direct_counts(db, spec, part) for part in parts)
        for spec in specs
    }
    return specs, sum(part.size for part in parts), totals


def _scan(db, body, **config) -> bytes:
    """The ``maps.scan`` op's (status, body) on a fresh engine, as bytes."""
    engine = CachingEngine(SubDEx(db, SubDExConfig(**config)))
    service = SessionService(lambda name: engine, db.name, SessionRegistry())
    return json.dumps(service.run("maps.scan", {"body": body}))


def test_index_counts_equal_direct_counts(
    sparse_db, criteria_factory, criteria_case
):
    db = sparse_db
    kind, seed = criteria_case
    criteria = criteria_factory(db, kind, seed)
    rows = RatingGroup(db, criteria).rows
    index = IndexedDatabase(db)
    group = index.group(criteria)
    assert len(group) == rows.size
    assert (rows.size == 0) == (kind == "empty")
    neighborhood = index.neighborhood(group)
    for spec in enumerate_map_specs(db, criteria):
        np.testing.assert_array_equal(
            neighborhood.parent_counts(spec), direct_counts(db, spec, rows)
        )


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
@pytest.mark.parametrize("criteria", CRITERIA)
def test_merged_counts_equal_full_scan(sparse_db, criteria, n_shards):
    db = sparse_db
    specs, group_size, totals = _partitioned_counts(db, criteria, n_shards)
    rows = RatingGroup(db, criteria).rows
    assert group_size == int(rows.size)
    index = IndexedDatabase(db)
    neighborhood = index.neighborhood(index.group(criteria))
    for spec in specs:
        np.testing.assert_array_equal(totals[spec], direct_counts(db, spec, rows))
        np.testing.assert_array_equal(
            totals[spec], neighborhood.parent_counts(spec)
        )


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
@pytest.mark.parametrize("criteria", CRITERIA)
def test_merged_result_fingerprint_matches_generate(
    sparse_db, criteria, n_shards
):
    db = sparse_db
    specs, group_size, totals = _partitioned_counts(db, criteria, n_shards)
    generator = preview_generator(RMSetGenerator(SubDExConfig().generator))

    def seen():
        return SeenMaps(
            db.dimensions, n_attributes=len(tuple(db.grouping_attributes()))
        )

    merged = generator.generate_from_counts(
        criteria,
        specs,
        totals.__getitem__,
        lambda spec: tuple(
            db.aligned_grouping(spec.side, spec.attribute).labels
        ),
        group_size,
        seen(),
    )
    full = generator.generate(RatingGroup(db, criteria), seen())
    assert result_fingerprint(merged) == result_fingerprint(full)


def test_scan_body_same_with_and_without_index(
    sparse_db, criteria_factory, criteria_case
):
    db = sparse_db
    criteria = criteria_factory(db, *criteria_case)
    body = {"criteria": criteria_to_json(criteria)}
    indexed = _scan(db, body)
    assert indexed == _scan(db, body, use_index=False)

    status, payload = json.loads(indexed)
    group = RatingGroup(db, criteria)
    assert status == 200
    assert payload["group_size"] == len(group)
    assert payload["degraded"] is False
    assert payload["worker"] is None
    expected = []
    if len(group):
        result = preview_generator(
            RMSetGenerator(SubDExConfig().generator)
        ).generate(
            group,
            SeenMaps(
                db.dimensions, n_attributes=len(tuple(db.grouping_attributes()))
            ),
        )
        expected = [
            rating_map_to_json(rm, result.dw_utility(rm))
            for rm in result.selected
        ]
    assert payload["maps"] == json.loads(json.dumps(expected))


def test_equivalence_across_shared_memory_attach(
    sparse_db, criteria_factory, criteria_kinds
):
    """A worker scans a zero-copy attached database: the same bytes as a
    scan of the original — the cross-process path."""
    db = sparse_db
    owner, attacher = SegmentRegistry(), SegmentRegistry()
    try:
        attached = attach_database(share_database(db, owner), attacher)
        for kind in criteria_kinds:
            criteria = criteria_factory(db, kind, 0)
            body = {"criteria": criteria_to_json(criteria), "k": 2}
            assert _scan(attached, body) == _scan(db, body)
    finally:
        attacher.close_attached()
        owner.unlink_all()


@pytest.mark.parametrize(
    "body",
    [{"dataset": 7}, {"k": 0}, {"k": True}, {"k": "2"}, {"criteria": []}],
    ids=["dataset-type", "k-zero", "k-bool", "k-string", "criteria-type"],
)
def test_scan_rejects_malformed_bodies(sparse_db, body):
    with pytest.raises(ProtocolError):
        _scan(sparse_db, body)
