"""The in-process side: engine construction and record digests.

Imports the program, so only child processes (and ``golden.py``) load it.
"""

from __future__ import annotations

from repro import RecommenderConfig, SubDEx, SubDExConfig, datasets

from common import (
    DATASET_SEED,
    MAPS_K,
    MAX_VALUES_PER_ATTRIBUTE,
    RECOMMENDATIONS_O,
    SCALE,
    step_digest,
)


def build_engine() -> SubDEx:
    """The dataset and engine exactly as ``python -m repro serve`` builds them."""
    database = datasets.yelp(seed=DATASET_SEED, scale_factor=SCALE)
    config = SubDExConfig(
        recommender=RecommenderConfig(
            o=RECOMMENDATIONS_O, max_values_per_attribute=MAX_VALUES_PER_ATTRIBUTE
        )
    ).with_k(MAPS_K)
    return SubDEx(database, config)


def record_digest(record) -> str:
    """``step_digest`` of a library ``StepRecord`` via the wire serialiser."""
    from repro.server.protocol import step_to_json

    return step_digest(step_to_json(record))
