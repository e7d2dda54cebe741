"""Shared-memory database export/attach roundtrips.

The attach side must reproduce every column bit-for-bit (numeric data,
categorical codes *and* category order, multi-valued sets, missing
values) and the exported alignment arrays must match what the attaching
side would have recomputed — these are the preconditions for the scan
equivalence in ``test_merge.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.partition import attach_database, share_database
from repro.cluster.shm import SegmentRegistry
from repro.model.database import Side


@pytest.fixture()
def registry():
    instance = SegmentRegistry()
    yield instance
    instance.unlink_all()


@pytest.fixture()
def attach_registry():
    # attached views are only valid while their registry is alive — hold
    # it for the test's duration (workers hold theirs for the process)
    instance = SegmentRegistry()
    yield instance
    instance.close_attached()


@pytest.mark.parametrize("missing", [0.0, 0.35], ids=["dense", "sparse"])
def test_share_attach_roundtrip(registry, attach_registry, missing, db_factory):
    db = db_factory(seed=5, missing=missing)
    manifest = share_database(db, registry)
    attached = attach_database(manifest, attach_registry)

    assert attached.name == db.name
    assert tuple(attached.dimensions) == tuple(db.dimensions)
    assert attached.scale == db.scale
    for side in (Side.REVIEWER, Side.ITEM):
        assert attached.key(side) == db.key(side)

    for original, copy in (
        (db.reviewers, attached.reviewers),
        (db.items, attached.items),
        (db.ratings, attached.ratings),
    ):
        assert copy.attribute_names == original.attribute_names
        for name in original.attribute_names:
            assert copy.column(name).to_list() == original.column(name).to_list()

    # the exported alignment equals a from-scratch resolution
    for side in (Side.REVIEWER, Side.ITEM):
        np.testing.assert_array_equal(
            attached.entity_rows_for_ratings(side),
            db.entity_rows_for_ratings(side),
        )


def test_manifest_is_picklable(registry, attach_registry, db_factory):
    import pickle

    manifest = share_database(db_factory(seed=2), registry)
    clone = pickle.loads(pickle.dumps(manifest, protocol=5))
    attached = attach_database(clone, attach_registry)
    assert len(attached.ratings) == 700

