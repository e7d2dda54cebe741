"""Dataset export/attach through shared memory.

:func:`share_database` copies a
:class:`~repro.model.database.SubjectiveDatabase` into shared-memory
segments and returns a picklable *manifest*; :func:`attach_database`
rebuilds the database in another process with the heavy arrays as
zero-copy views over those segments.  Numeric data (``float64``) and
categorical codes (``int32``) travel by segment; small metadata (schemas,
category lists, multi-valued row sets) travels pickled inside the
manifest.  The record→entity alignment arrays are exported too, so the
attaching side skips the per-record id-resolution loops entirely.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..db.column import (
    CategoricalColumn,
    Column,
    MultiValuedColumn,
    NumericColumn,
)
from ..db.table import Table
from ..model.database import Side, SubjectiveDatabase
from .shm import SegmentRegistry, attach_array, share_array

__all__ = [
    "attach_database",
    "attach_table",
    "share_database",
    "share_table",
]


def _share_column(column: Column, registry: SegmentRegistry) -> dict[str, Any]:
    if isinstance(column, NumericColumn):
        return {"kind": "numeric", "data": share_array(column.data, registry)}
    if isinstance(column, CategoricalColumn):
        return {
            "kind": "categorical",
            "codes": share_array(column.codes, registry),
            "categories": list(column.categories),
        }
    if isinstance(column, MultiValuedColumn):
        # multi-valued columns live on the (small) entity tables; their
        # per-row frozensets ride inside the manifest itself
        return {"kind": "multi", "rows": column.to_list()}
    raise TypeError(f"cannot share column of type {type(column).__name__}")


def _attach_column(
    manifest: Mapping[str, Any], registry: SegmentRegistry
) -> Column:
    kind = manifest["kind"]
    if kind == "numeric":
        return NumericColumn(attach_array(manifest["data"], registry))
    if kind == "categorical":
        return CategoricalColumn(
            attach_array(manifest["codes"], registry), manifest["categories"]
        )
    if kind == "multi":
        return MultiValuedColumn(
            [frozenset(row or ()) for row in manifest["rows"]]
        )
    raise TypeError(f"unknown shared column kind {kind!r}")


def share_table(table: Table, registry: SegmentRegistry) -> dict[str, Any]:
    return {
        "schema": table.schema,  # frozen dataclasses: picklable as-is
        "columns": {
            name: _share_column(table.column(name), registry)
            for name in table.attribute_names
        },
    }


def attach_table(
    manifest: Mapping[str, Any], registry: SegmentRegistry
) -> Table:
    return Table(
        manifest["schema"],
        {
            name: _attach_column(column, registry)
            for name, column in manifest["columns"].items()
        },
    )


def share_database(
    database: SubjectiveDatabase, registry: SegmentRegistry
) -> dict[str, Any]:
    """Export a validated database into shared memory; returns its manifest."""
    user_rows = database.entity_rows_for_ratings(Side.REVIEWER)
    item_rows = database.entity_rows_for_ratings(Side.ITEM)
    return {
        "name": database.name,
        "dimensions": tuple(database.dimensions),
        "scale": database.scale,
        "user_key": database.key(Side.REVIEWER),
        "item_key": database.key(Side.ITEM),
        "reviewers": share_table(database.reviewers, registry),
        "items": share_table(database.items, registry),
        "ratings": share_table(database.ratings, registry),
        "alignment": {
            "user_rows": share_array(user_rows, registry),
            "item_rows": share_array(item_rows, registry),
        },
    }


def attach_database(
    manifest: Mapping[str, Any], registry: SegmentRegistry
) -> SubjectiveDatabase:
    """Rebuild a shared database; heavy columns are zero-copy views."""
    alignment = (
        attach_array(manifest["alignment"]["user_rows"], registry),
        attach_array(manifest["alignment"]["item_rows"], registry),
    )
    return SubjectiveDatabase(
        attach_table(manifest["reviewers"], registry),
        attach_table(manifest["items"], registry),
        attach_table(manifest["ratings"], registry),
        manifest["dimensions"],
        scale=manifest["scale"],
        user_key=manifest["user_key"],
        item_key=manifest["item_key"],
        name=manifest["name"],
        alignment=alignment,
    )

