"""In-memory columnar database engine (substrate S1).

This subpackage is self-contained: typed columns, schemas, predicate
algebra, a tiny SQL WHERE dialect, a shared multi-aggregate group-by engine
with phased scans, active-domain catalogs, and CSV persistence.
"""

from .catalog import AttributeDomain, Catalog
from .column import (
    CategoricalColumn,
    Column,
    MultiValuedColumn,
    NumericColumn,
    column_from_values,
)
from .csvio import load_table, save_table
from .groupby import (
    Grouping,
    build_grouping,
    group_histograms,
    phase_slices,
)
from .predicates import (
    And,
    Cmp,
    Eq,
    In,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjunction,
    to_sql,
)
from .schema import AttributeSpec, TableSchema
from .sql import parse_select, parse_where
from .table import Table
from .types import ColumnType, infer_column_type

__all__ = [
    "AttributeDomain",
    "AttributeSpec",
    "And",
    "Catalog",
    "CategoricalColumn",
    "Cmp",
    "Column",
    "ColumnType",
    "Eq",
    "Grouping",
    "In",
    "MultiValuedColumn",
    "Not",
    "NumericColumn",
    "Or",
    "Predicate",
    "Table",
    "TableSchema",
    "TruePredicate",
    "build_grouping",
    "column_from_values",
    "conjunction",
    "group_histograms",
    "infer_column_type",
    "load_table",
    "parse_select",
    "parse_where",
    "phase_slices",
    "save_table",
    "to_sql",
]
