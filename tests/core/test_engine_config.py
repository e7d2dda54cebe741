"""Tests for engine configuration plumbing and exceptions."""

import pytest

from repro import SubDEx, SubDExConfig
from repro.core.generator import GeneratorConfig
from repro.core.pruning import PruningStrategy
from repro.core.recommend import RecommenderConfig
from repro.exceptions import (
    ColumnTypeError,
    ConfigurationError,
    EmptyGroupError,
    OperationError,
    PredicateError,
    ReproError,
    SchemaError,
    SQLParseError,
    UnknownAttributeError,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            ColumnTypeError,
            PredicateError,
            EmptyGroupError,
            ConfigurationError,
            OperationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_unknown_attribute_lists_available(self):
        error = UnknownAttributeError("x", ("a", "b"))
        assert "x" in str(error) and "a" in str(error)

    def test_sql_parse_error_carries_query(self):
        error = SQLParseError("bad query", "because")
        assert error.query == "bad query"
        assert "because" in str(error)


class TestRecommenderConfig:
    def test_workers_sequential(self):
        assert RecommenderConfig(parallel=False).workers() == 1

    def test_workers_defaults_to_cpu(self):
        assert RecommenderConfig().workers() >= 1

    def test_preview_generator_strips_pruning(self, tiny_db):
        engine = SubDEx(
            tiny_db,
            SubDExConfig(
                generator=GeneratorConfig(pruning=PruningStrategy.COMBINED),
                recommender=RecommenderConfig(max_values_per_attribute=2),
            ),
        )
        preview = engine.recommender._preview_generator
        assert preview.config.pruning is PruningStrategy.NONE
        assert preview.config.n_phases == 1

    def test_preview_full_pipeline_shares_generator(self, tiny_db):
        engine = SubDEx(
            tiny_db,
            SubDExConfig(
                recommender=RecommenderConfig(
                    max_values_per_attribute=2,
                    preview_uses_full_pipeline=True,
                )
            ),
        )
        assert engine.recommender._preview_generator is engine.generator


class TestGeneratorDefaults:
    def test_paper_table3_defaults(self):
        config = SubDExConfig()
        assert config.generator.k == 3
        assert config.generator.pruning_diversity_factor == 3
        assert config.recommender.o == 3
        assert config.generator.n_phases == 10
