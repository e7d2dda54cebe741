"""Live SLO tracking: declarative objectives, rolling windows, burn rates.

The layer that scores the serving stack against the paper's
interactivity promise: per-endpoint-class objectives (:mod:`.spec`),
lock-cheap 1m/5m/1h ring-buffer windows (:mod:`.windows`) fed from the
request envelope path, and a tracker (:mod:`.tracker`) exposing
``GET /slo`` scorecards, ``subdex_slo_*`` Prometheus families and
burn-rate threshold events.  ``tests/cluster/test_slo_crosscheck.py``
recomputes the same numbers offline from a client's request log with a
fresh :class:`SLOTracker` and asserts they equal ``GET /slo``.
"""

from .spec import (
    SLObjective,
    SLOConfig,
    burn_rate,
    default_slo_config,
    evaluate_counts,
    load_slo_config,
)
from .tracker import SLOTracker, merge_worker_totals, scorecard_from_totals
from .windows import ClassWindows, WindowCounts, merge_counts

__all__ = [
    "ClassWindows",
    "SLObjective",
    "SLOConfig",
    "SLOTracker",
    "WindowCounts",
    "burn_rate",
    "default_slo_config",
    "evaluate_counts",
    "load_slo_config",
    "merge_counts",
    "merge_worker_totals",
    "scorecard_from_totals",
]
