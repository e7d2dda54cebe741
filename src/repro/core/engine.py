"""The SubDEx engine facade (paper Figure 4).

:class:`SubDEx` wires the SDE engine together: RM-Set Generator,
Recommendation Builder and exploration sessions, all under one
:class:`SubDExConfig`.  This is the library's main entry point:

.. code-block:: python

    from repro import SubDEx, SelectionCriteria
    from repro.datasets import movielens

    engine = SubDEx(movielens(seed=7))
    path = engine.explore_automated(n_steps=7)
    for step in path.steps:
        print(step.describe())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..model.database import SubjectiveDatabase
from ..model.groups import RatingGroup, SelectionCriteria
from .generator import GeneratorConfig, RMSetGenerator, RMSetResult
from .modes import (
    ExplorationPath,
    RecommendationChooser,
    UserDrivenChooser,
    run_fully_automated,
    run_recommendation_powered,
    run_user_driven,
)
from .recommend import RecommendationBuilder, RecommenderConfig, ScoredOperation
from .session import ExplorationSession
from .utility import SeenMaps

__all__ = ["SubDExConfig", "SubDEx"]


@dataclass(frozen=True)
class SubDExConfig:
    """Complete engine configuration (defaults = paper Table 3).

    ``use_index`` attaches the sufficient-statistic index layer
    (:mod:`repro.index`): posting lists, fused candidate cubes and
    delta-maintained histograms under the hot paths.  Disabling it gives
    the naive scan-everything engine — the correctness oracle the indexed
    path is tested against (see ``docs/PERFORMANCE.md``).  An indexed
    engine scores the recommendation neighbourhood family by family from
    stacked count tensors with upper-bound pruning (:mod:`repro.batch`),
    under every utility configuration.
    """

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    recommender: RecommenderConfig = field(default_factory=RecommenderConfig)
    use_index: bool = True
    index_memory_budget_bytes: int = 64 * 1024 * 1024

    # -- fluent tweaks used by the benches -------------------------------
    def with_k(self, k: int) -> "SubDExConfig":
        return replace(self, generator=replace(self.generator, k=k))

    def with_l(self, l_factor: int) -> "SubDExConfig":
        return replace(
            self,
            generator=replace(
                self.generator, pruning_diversity_factor=l_factor
            ),
        )

    def with_o(self, o: int) -> "SubDExConfig":
        return replace(self, recommender=replace(self.recommender, o=o))


class SubDEx:
    """A configured SDE engine over one subjective database."""

    def __init__(
        self,
        database: SubjectiveDatabase,
        config: SubDExConfig | None = None,
    ) -> None:
        self._database = database
        self._config = config or SubDExConfig()
        self._generator = RMSetGenerator(self._config.generator)
        if self._config.use_index:
            from ..index.facade import IndexedDatabase

            self._index: "IndexedDatabase | None" = IndexedDatabase(
                database,
                memory_budget_bytes=self._config.index_memory_budget_bytes,
            )
        else:
            self._index = None
        self._recommender = RecommendationBuilder(
            database,
            self._generator,
            self._config.recommender,
            index=self._index,
        )

    # -- accessors --------------------------------------------------------
    @property
    def database(self) -> SubjectiveDatabase:
        return self._database

    @property
    def config(self) -> SubDExConfig:
        return self._config

    @property
    def generator(self) -> RMSetGenerator:
        return self._generator

    @property
    def recommender(self) -> RecommendationBuilder:
        return self._recommender

    @property
    def index(self):
        """The attached :class:`~repro.index.IndexedDatabase` (or ``None``)."""
        return self._index

    # -- one-shot operations ------------------------------------------------
    def rating_maps(
        self,
        criteria: SelectionCriteria | None = None,
        seen: SeenMaps | None = None,
    ) -> RMSetResult:
        """The diverse k-set of rating maps for a selection (Problem 1)."""
        criteria = criteria or SelectionCriteria.root()
        if self._index is not None:
            group = self._index.group(criteria)
            slices = self._index.step_slices(criteria, group.rows)
        else:
            group, slices = RatingGroup(self._database, criteria), None
        seen = seen or SeenMaps(
            self._database.dimensions,
            n_attributes=len(self._database.grouping_attributes()),
        )
        return self._generator.generate(group, seen, slices=slices)

    def recommend(
        self,
        criteria: SelectionCriteria | None = None,
        seen: SeenMaps | None = None,
        o: int | None = None,
    ) -> list[ScoredOperation]:
        """Top-o next-step operations for a selection (Problem 2)."""
        criteria = criteria or SelectionCriteria.root()
        seen = seen or SeenMaps(
            self._database.dimensions,
            n_attributes=len(self._database.grouping_attributes()),
        )
        return self._recommender.recommend(criteria, seen, o=o)

    # -- sessions / modes -----------------------------------------------------
    def session(
        self, start: SelectionCriteria | None = None
    ) -> ExplorationSession:
        """A fresh exploration session starting at ``start`` (default: root)."""
        return ExplorationSession(
            self._database,
            self._generator,
            self._recommender,
            start,
            index=self._index,
        )

    def explore_user_driven(
        self,
        chooser: UserDrivenChooser,
        n_steps: int,
        start: SelectionCriteria | None = None,
    ) -> ExplorationPath:
        return run_user_driven(self.session(start), chooser, n_steps)

    def explore_recommendation_powered(
        self,
        chooser: RecommendationChooser,
        n_steps: int,
        start: SelectionCriteria | None = None,
    ) -> ExplorationPath:
        return run_recommendation_powered(self.session(start), chooser, n_steps)

    def explore_automated(
        self,
        n_steps: int,
        start: SelectionCriteria | None = None,
    ) -> ExplorationPath:
        """Fully-Automated mode: a fixed-length top-1-recommendation path."""
        return run_fully_automated(self.session(start), n_steps)
