"""Declarative SLO definitions and the shared evaluation math.

An SLO here is a per-**endpoint-class** contract — e.g. the
``recommendations`` class promises *p95 ≤ 800 ms, availability ≥ 99.5%,
degraded rate ≤ 5%*.  Endpoint classes group the server's route labels
(and the cluster workers' op names) into the few categories a human
actually reasons about:

* ``recommendations`` — the paper's interactive promise: recommendation
  reads and refinement polls;
* ``steps`` — state-changing exploration steps (session create, apply,
  stateless cluster scans);
* ``reads`` — cheap session reads (maps, summaries, history, listings);
* ``ops`` — operational surface (health, metrics, debug, cluster admin).

The latency objective is expressed as a *quantile promise*: ``p95 ≤
800 ms`` is exactly "≥ 95% of requests finish within 800 ms", so the
tracker only needs a within-budget counter, never a quantile estimate —
and the same counter arithmetic reproduces offline from a request log,
which is how ``tests/cluster/test_slo_crosscheck.py`` cross-checks
``GET /slo``.

Everything that turns raw counts into scorecard numbers lives in
:func:`evaluate_counts` / :func:`burn_rate`, shared by the live tracker
and the cluster fleet aggregation — one implementation, so a fleet
scorecard cannot drift from a single-process one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "SLObjective",
    "SLOConfig",
    "burn_rate",
    "default_slo_config",
    "evaluate_counts",
    "load_slo_config",
]

#: Floor on the allowed bad fraction: a 100% objective would make every
#: burn rate infinite, which helps nobody — clamp instead.
_MIN_ALLOWED = 1e-9


@dataclass(frozen=True)
class SLObjective:
    """One endpoint class's promises.

    ``latency_ms`` + ``latency_target`` encode the quantile promise
    (target 0.95 at 800 ms ⇔ "p95 ≤ 800 ms"); ``availability_target``
    bounds the non-5xx fraction; ``max_degraded_rate`` bounds how often
    the anytime ladder may hand back degraded answers.
    """

    latency_ms: float = 800.0
    latency_target: float = 0.95
    availability_target: float = 0.995
    max_degraded_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError(f"latency_ms must be > 0, got {self.latency_ms}")
        for name in ("latency_target", "availability_target"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 <= self.max_degraded_rate <= 1.0:
            raise ValueError(
                f"max_degraded_rate must be in [0, 1], "
                f"got {self.max_degraded_rate}"
            )

    def to_json(self) -> dict[str, float]:
        return {
            "latency_ms": self.latency_ms,
            "latency_target": self.latency_target,
            "availability_target": self.availability_target,
            "max_degraded_rate": self.max_degraded_rate,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SLObjective":
        unknown = set(data) - {
            "latency_ms",
            "latency_target",
            "availability_target",
            "max_degraded_rate",
        }
        if unknown:
            raise ValueError(
                f"unknown SLO objective keys: {', '.join(sorted(unknown))}"
            )
        return cls(**{k: float(v) for k, v in data.items()})


#: The shipped per-class objectives — the paper's interactivity promise
#: made explicit.  ``ops`` is tracked but deliberately lax: debug
#: endpoints (profiles, traces) are slow by design.
DEFAULT_CLASS_OBJECTIVES: Mapping[str, SLObjective] = {
    "recommendations": SLObjective(
        latency_ms=800.0,
        latency_target=0.95,
        availability_target=0.995,
        max_degraded_rate=0.05,
    ),
    "steps": SLObjective(
        latency_ms=2000.0,
        latency_target=0.90,
        availability_target=0.995,
        max_degraded_rate=0.10,
    ),
    "reads": SLObjective(
        latency_ms=250.0,
        latency_target=0.95,
        availability_target=0.999,
        max_degraded_rate=0.05,
    ),
    "ops": SLObjective(
        latency_ms=5000.0,
        latency_target=0.90,
        availability_target=0.99,
        max_degraded_rate=1.0,
    ),
}

#: HTTP route label → endpoint class (labels as they appear in
#: ``/metrics``; unlisted labels fall through to :func:`_classify_route`).
DEFAULT_ROUTE_CLASSES: Mapping[str, str] = {
    "GET /sessions/{id}/recommendations": "recommendations",
    "GET /sessions/{id}/recommendations/refine/{token}": "recommendations",
    "POST /sessions": "steps",
    "POST /sessions/{id}/apply": "steps",
    "POST /cluster/maps": "steps",
    "GET /sessions": "reads",
    "GET /sessions/{id}": "reads",
    "GET /sessions/{id}/maps": "reads",
    "GET /sessions/{id}/history": "reads",
    "DELETE /sessions/{id}": "reads",
}

#: Cluster worker op name → endpoint class (mirrors the route table).
DEFAULT_OP_CLASSES: Mapping[str, str] = {
    "session.recommendations": "recommendations",
    "session.refine": "recommendations",
    "session.create": "steps",
    "session.apply": "steps",
    "maps.scan": "steps",
    "session.maps": "reads",
    "session.summary": "reads",
    "session.history": "reads",
    "session.close": "reads",
    "sessions.list": "reads",
}


def _classify_route(label: str) -> str:
    """Fallback classification for labels outside the explicit table."""
    if "/recommendations" in label:
        return "recommendations"
    if label.startswith(("POST ", "PUT ", "PATCH ")):
        return "steps"
    if "/sessions" in label:
        return "reads"
    return "ops"


@dataclass(frozen=True)
class SLOConfig:
    """The full declarative SLO surface of one deployment."""

    classes: Mapping[str, SLObjective]
    route_classes: Mapping[str, str]
    op_classes: Mapping[str, str]
    #: Fast-burn alerting threshold over the 5m window (Google SRE's
    #: page-worthy 14.4 = "the 30-day budget gone in ~2 days").
    fast_burn_threshold: float = 14.4
    #: Slow-burn warning threshold over the 1h window.
    slow_burn_threshold: float = 6.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("SLOConfig needs at least one endpoint class")
        for table_name in ("route_classes", "op_classes"):
            for key, cls in getattr(self, table_name).items():
                if cls not in self.classes:
                    raise ValueError(
                        f"{table_name}[{key!r}] names unknown class {cls!r}"
                    )
        if self.fast_burn_threshold <= 0 or self.slow_burn_threshold <= 0:
            raise ValueError("burn thresholds must be > 0")

    def classify(self, route_label: str) -> str:
        """Endpoint class of one HTTP route label."""
        cls = self.route_classes.get(route_label)
        if cls is None:
            cls = _classify_route(route_label)
        return cls if cls in self.classes else "ops"

    def classify_op(self, op: str) -> str:
        """Endpoint class of one cluster-worker op name."""
        cls = self.op_classes.get(op)
        if cls is not None and cls in self.classes:
            return cls
        return "ops" if "ops" in self.classes else next(iter(self.classes))

    def objective(self, cls: str) -> SLObjective:
        return self.classes[cls]

    def to_json(self) -> dict[str, Any]:
        """A picklable/JSON form (ships to cluster workers in WorkerSpec)."""
        return {
            "classes": {
                name: objective.to_json()
                for name, objective in self.classes.items()
            },
            "routes": dict(self.route_classes),
            "ops": dict(self.op_classes),
            "fast_burn_threshold": self.fast_burn_threshold,
            "slow_burn_threshold": self.slow_burn_threshold,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SLOConfig":
        """Parse a config dict; class objectives *merge over* the defaults.

        A ``--slo-config`` file only needs to name what it changes::

            {"classes": {"recommendations": {"latency_ms": 500}}}
        """
        unknown = set(data) - {
            "classes",
            "routes",
            "ops",
            "fast_burn_threshold",
            "slow_burn_threshold",
        }
        if unknown:
            raise ValueError(
                f"unknown SLO config keys: {', '.join(sorted(unknown))}"
            )
        for key in ("classes", "routes", "ops"):
            value = data.get(key)
            if value is not None and not isinstance(value, Mapping):
                raise ValueError(f"{key!r} must be a JSON object")
        classes = dict(DEFAULT_CLASS_OBJECTIVES)
        for name, spec in (data.get("classes") or {}).items():
            if not isinstance(spec, Mapping):
                raise ValueError(
                    f"class {name!r} must map to an objective object"
                )
            base = classes.get(name, SLObjective()).to_json()
            base.update(spec)
            classes[name] = SLObjective.from_json(base)
        routes = dict(DEFAULT_ROUTE_CLASSES)
        routes.update(data.get("routes") or {})
        ops = dict(DEFAULT_OP_CLASSES)
        ops.update(data.get("ops") or {})
        return cls(
            classes=classes,
            route_classes=routes,
            op_classes=ops,
            fast_burn_threshold=float(
                data.get("fast_burn_threshold", 14.4)
            ),
            slow_burn_threshold=float(data.get("slow_burn_threshold", 6.0)),
        )


def default_slo_config() -> SLOConfig:
    """The shipped configuration (also the base every file merges over)."""
    return SLOConfig(
        classes=dict(DEFAULT_CLASS_OBJECTIVES),
        route_classes=dict(DEFAULT_ROUTE_CLASSES),
        op_classes=dict(DEFAULT_OP_CLASSES),
    )


def load_slo_config(path: str | None) -> SLOConfig:
    """Read a ``--slo-config`` JSON file (``None`` → the defaults)."""
    if path is None:
        return default_slo_config()
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"SLO config {path!r} must be a JSON object")
    return SLOConfig.from_json(data)


# -- shared evaluation math ---------------------------------------------------

def burn_rate(bad: float, total: float, target: float) -> float:
    """How fast the error budget burns: observed bad fraction ÷ allowed.

    1.0 = burning exactly at budget; >1 = over; an empty window burns
    nothing (0.0 — never NaN).  Monotone in ``bad`` for fixed window
    membership: adding a bad request can only raise it.
    """
    if total <= 0:
        return 0.0
    allowed = max(1.0 - target, _MIN_ALLOWED)
    return (bad / total) / allowed


def evaluate_counts(
    objective: SLObjective, counts: Mapping[str, Any]
) -> dict[str, Any]:
    """Scorecard numbers for one class over one window's raw counts.

    ``counts`` needs ``count``, ``errors``, ``shed``, ``degraded`` and
    ``within_budget`` keys (the :class:`~repro.slo.windows.WindowCounts`
    JSON form).  Rates are ``None`` on an empty window — JSON ``null``,
    never NaN — and burn rates are 0.0 (no traffic consumes no budget).
    """
    total = float(counts.get("count", 0))
    errors = float(counts.get("errors", 0))
    shed = float(counts.get("shed", 0))
    degraded = float(counts.get("degraded", 0))
    within = float(counts.get("within_budget", 0))
    if total <= 0:
        return {
            "count": 0,
            "availability": None,
            "latency_attainment": None,
            "error_rate": None,
            "shed_rate": None,
            "degraded_rate": None,
            "mean_latency_ms": None,
            "burn_rates": {
                "availability": 0.0,
                "latency": 0.0,
                "degraded": 0.0,
                "max": 0.0,
            },
        }
    burn_availability = burn_rate(
        errors, total, objective.availability_target
    )
    burn_latency = burn_rate(
        total - within, total, objective.latency_target
    )
    burn_degraded = burn_rate(
        degraded, total, 1.0 - objective.max_degraded_rate
    )
    sum_seconds = float(counts.get("sum_seconds", 0.0))
    return {
        "count": int(total),
        "availability": (total - errors) / total,
        "latency_attainment": within / total,
        "error_rate": errors / total,
        "shed_rate": shed / total,
        "degraded_rate": degraded / total,
        "mean_latency_ms": sum_seconds / total * 1000.0,
        "burn_rates": {
            "availability": burn_availability,
            "latency": burn_latency,
            "degraded": burn_degraded,
            "max": max(burn_availability, burn_latency, burn_degraded),
        },
    }
