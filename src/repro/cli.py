"""Command-line interface — the terminal stand-in for the paper's UI (§4).

Four subcommands:

* ``summary`` — dataset statistics in the paper's Table 2 shape;
* ``explore`` — run a Fully-Automated exploration and print the path;
* ``interactive`` — the UI loop: each step shows the k rating maps and the
  top-o recommendations; the user applies a recommendation by number,
  edits the selection with ``add``/``drop`` commands or a SQL predicate
  (the "advanced screen" of the paper's UI), or quits;
* ``serve`` — run the concurrent multi-session exploration service
  (:mod:`repro.server`);
* ``profile`` — run any other subcommand in-process under the sampling
  profiler (:mod:`repro.perf.profiler`) and emit flamegraph-ready
  collapsed stacks or JSON.

Sessions can be exported as JSON exploration logs (``--log``), the input
for the personalisation extension.

Usage errors (unknown dataset, unwritable ``--log`` path) exit with code 2
and a one-line message on stderr.

Examples::

    python -m repro summary --dataset yelp --scale 0.05
    python -m repro explore --dataset movielens --steps 5 --log run.json
    python -m repro interactive --dataset yelp
    python -m repro serve --dataset yelp --port 8642
    python -m repro profile --output prof.txt -- explore --steps 3
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from .core.engine import SubDEx, SubDExConfig
from .core.history import ExplorationLog
from .core.modes import ExplorationMode, ExplorationPath
from .core.recommend import RecommenderConfig
from .core.session import ExplorationSession
from .db.sql import parse_where
from .exceptions import ReproError
from .model.database import Side, SubjectiveDatabase
from .model.groups import AVPair, SelectionCriteria

__all__ = ["main", "build_parser", "CLIError"]

DATASETS = ("movielens", "yelp", "hotels")


class CLIError(Exception):
    """A usage error: ``main`` prints one line to stderr and exits 2."""


def _load_dataset(name: str, scale: float, seed: int) -> SubjectiveDatabase:
    from . import datasets

    factories: dict[str, Callable[..., SubjectiveDatabase]] = {
        "movielens": datasets.movielens,
        "yelp": datasets.yelp,
        "hotels": datasets.hotels,
    }
    if name not in factories:
        raise CLIError(
            f"unknown dataset {name!r} (choose from {', '.join(factories)})"
        )
    return factories[name](seed=seed, scale_factor=scale)


def _check_log_path(log: str | None) -> None:
    """Fail fast on a ``--log`` path that can never be written."""
    if log is None:
        return
    path = Path(log)
    if path.is_dir():
        raise CLIError(f"--log path {log!r} is a directory")
    parent = path.parent
    if not parent.is_dir():
        raise CLIError(f"--log directory {str(parent)!r} does not exist")


def _save_log(log: ExplorationLog, destination: str) -> None:
    try:
        log.save(destination)
    except OSError as error:
        raise CLIError(f"cannot write --log file {destination!r}: {error}")


def _engine(database: SubjectiveDatabase, o: int, k: int) -> SubDEx:
    config = SubDExConfig(
        recommender=RecommenderConfig(o=o, max_values_per_attribute=6)
    ).with_k(k)
    return SubDEx(database, config)


def _print_step(record, out) -> None:
    from .core.render import render_histogram

    print(f"\n━━ Step {record.index}: {record.criteria.describe()} "
          f"({record.group_size} records) ━━", file=out)
    for rating_map in record.result.selected:
        print(file=out)
        print(render_histogram(rating_map), file=out)
    if record.recommendations:
        print("\nRecommended next steps:", file=out)
        for i, reco in enumerate(record.recommendations, 1):
            print(f"  [{i}] {reco.describe()}", file=out)


# -- subcommands ---------------------------------------------------------------

def cmd_summary(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    database = _load_dataset(args.dataset, args.scale, args.seed)
    summary = database.summary()
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        print(f"{key:<{width}}  {value}", file=out)
    return 0


def cmd_explore(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    _check_log_path(args.log)
    database = _load_dataset(args.dataset, args.scale, args.seed)
    engine = _engine(database, args.recommendations, args.maps)
    path = engine.explore_automated(args.steps)
    for record in path.steps:
        _print_step(record, out)
    if args.log:
        _save_log(
            ExplorationLog.from_path(path, dataset=database.name), args.log
        )
        print(f"\nexploration log written to {args.log}", file=out)
    return 0


def _parse_edit(
    command: str, session: ExplorationSession
) -> SelectionCriteria | None:
    """Parse an interactive edit command into new criteria.

    ``add reviewer.gender=F`` / ``drop item.city`` /
    ``sql reviewer gender = 'F' AND age_group = 'young'``.
    """
    parts = command.split(None, 2)
    verb = parts[0].lower()
    if verb == "add" and len(parts) >= 2:
        target, __, value = parts[1].partition("=")
        side_name, __, attribute = target.partition(".")
        side = Side(side_name)
        return session.criteria.with_pair(AVPair(side, attribute, value))
    if verb == "drop" and len(parts) >= 2:
        side_name, __, attribute = parts[1].partition(".")
        side = Side(side_name)
        for pair in session.criteria:
            if pair.side is side and pair.attribute == attribute:
                return session.criteria.without_pair(pair)
        raise ReproError(f"{parts[1]} is not part of the current selection")
    if verb == "sql" and len(parts) >= 3:
        side = Side(parts[1])
        predicate = parse_where(parts[2])
        # the advanced screen accepts conjunctions of equalities
        pairs = [p for p in session.criteria if p.side is not side]
        from .db.predicates import And, Eq

        leaves = (
            predicate.operands if isinstance(predicate, And) else (predicate,)
        )
        for leaf in leaves:
            if not isinstance(leaf, Eq):
                raise ReproError(
                    "the interactive screen accepts conjunctions of "
                    "attribute = value only"
                )
            pairs.append(AVPair(side, leaf.attribute, leaf.value))
        return SelectionCriteria(pairs)
    raise ReproError(f"unrecognised command: {command!r}")


def cmd_interactive(
    args: argparse.Namespace,
    out=None,
    input_fn: Callable[[str], str] = input,
) -> int:
    out = out or sys.stdout
    _check_log_path(args.log)
    database = _load_dataset(args.dataset, args.scale, args.seed)
    engine = _engine(database, args.recommendations, args.maps)
    session = engine.session()
    record = session.step(with_recommendations=True)
    _print_step(record, out)
    print(
        "\ncommands: 1..o apply recommendation · add side.attr=value · "
        "drop side.attr · sql side <predicate> · quit",
        file=out,
    )
    while True:
        try:
            command = input_fn("subdex> ").strip()
        except EOFError:
            break
        if not command:
            continue
        if command.lower() in ("quit", "exit", "q"):
            break
        try:
            if command.isdigit():
                index = int(command) - 1
                recommendations = record.recommendations
                if not 0 <= index < len(recommendations):
                    print(f"no recommendation [{command}]", file=out)
                    continue
                record = session.step(
                    recommendations[index].operation, with_recommendations=True
                )
            else:
                criteria = _parse_edit(command, session)
                record = session.apply_criteria(
                    criteria, with_recommendations=True
                )
            _print_step(record, out)
        except (ReproError, ValueError) as error:
            print(f"error: {error}", file=out)
    if args.log:
        path = ExplorationPath(ExplorationMode.USER_DRIVEN, session.steps)
        _save_log(
            ExplorationLog.from_path(path, dataset=database.name), args.log
        )
        print(f"exploration log written to {args.log}", file=out)
    return 0


def cmd_serve(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    from .obs.logs import setup_logging
    from .server import ServerConfig, serve

    setup_logging(level=args.log_level, fmt=args.log_format)
    names = [name.strip() for name in args.dataset.split(",") if name.strip()]
    if not names:
        raise CLIError("--dataset must name at least one dataset")
    factories = {}
    for name in names:
        if name not in DATASETS:
            raise CLIError(
                f"unknown dataset {name!r} (choose from {', '.join(DATASETS)})"
            )
        factories[name] = (
            lambda n=name: _engine(
                _load_dataset(n, args.scale, args.seed),
                args.recommendations,
                args.maps,
            )
        )
    if args.workers < 0:
        raise CLIError(f"--workers must be >= 0, got {args.workers}")
    if args.slo_config is not None:
        from .slo import load_slo_config

        try:
            load_slo_config(args.slo_config)
        except (OSError, ValueError) as error:
            raise CLIError(f"--slo-config: {error}")
    if not 0.0 <= args.trace_sample_rate <= 1.0:
        raise CLIError(
            f"--trace-sample-rate must be in [0, 1], "
            f"got {args.trace_sample_rate}"
        )
    config = ServerConfig(
        max_sessions=args.max_sessions,
        session_ttl_seconds=args.session_ttl,
        default_deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval_seconds=args.checkpoint_interval,
        drain_seconds=args.drain_seconds,
        tracing_enabled=not args.no_tracing,
        trace_file=args.trace_file,
        trace_file_max_mb=args.trace_file_max_mb,
        trace_ring_mb=args.trace_ring_mb,
        trace_sample_rate=args.trace_sample_rate,
        trace_max_spans=args.trace_max_spans,
        slow_request_ms=args.slow_request_ms,
        workers=args.workers,
        slo_enabled=not args.no_slo,
        slo_config_path=args.slo_config,
    )
    return serve(factories, host=args.host, port=args.port, config=config, out=out)


def cmd_profile(args: argparse.Namespace, out=None) -> int:
    """Run another subcommand in-process under the sampling profiler.

    Sampling only sees this process's threads, so the inner command runs
    in-process (same interpreter) rather than as a subprocess.  With
    ``--output`` the profile goes to a file in pure collapsed/JSON form
    (pipe it straight into ``flamegraph.pl`` or speedscope); without it,
    the profile is printed after the inner command's own output.
    """
    import json as json_module

    from .perf.profiler import SamplingProfiler

    out = out or sys.stdout
    inner = list(args.inner)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        raise CLIError(
            "profile needs a command to run, e.g. "
            "repro profile -- explore --steps 3"
        )
    if inner[0] == "profile":
        raise CLIError("cannot nest profile inside profile")
    inner_args = build_parser().parse_args(inner)
    try:
        profiler = SamplingProfiler(interval=args.interval_ms / 1000.0)
    except ValueError as error:
        raise CLIError(str(error)) from None
    profiler.start()
    try:
        exit_code = inner_args.fn(inner_args)
    finally:
        profile = profiler.stop()
    if args.format == "collapsed":
        rendered = profile.render_collapsed()
    else:
        rendered = json_module.dumps(profile.to_dict(), indent=2) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(rendered, encoding="utf-8")
        except OSError as error:
            raise CLIError(
                f"cannot write --output file {args.output!r}: {error}"
            ) from None
        print(
            f"profile written to {args.output} "
            f"({profile.n_samples} samples, {len(profile)} stacks, "
            f"{profile.duration_seconds:.2f}s)",
            file=out,
        )
    else:
        print(
            f"\n━━ profile: {profile.n_samples} samples, "
            f"{len(profile)} stacks, {profile.duration_seconds:.2f}s ━━",
            file=out,
        )
        out.write(rendered)
    return exit_code


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SubDEx — Subjective Data Exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="yelp",
                       help="movielens | yelp | hotels (default: yelp)")
        p.add_argument("--scale", type=float, default=0.05,
                       help="dataset scale factor (1.0 = paper size)")
        p.add_argument("--seed", type=int, default=0)

    p_summary = sub.add_parser("summary", help="dataset statistics (Table 2)")
    common(p_summary)
    p_summary.set_defaults(fn=cmd_summary)

    p_explore = sub.add_parser("explore", help="Fully-Automated exploration")
    common(p_explore)
    p_explore.add_argument("--steps", type=int, default=5)
    p_explore.add_argument("--maps", type=int, default=3, help="k")
    p_explore.add_argument("--recommendations", type=int, default=3, help="o")
    p_explore.add_argument("--log", default=None,
                           help="write the exploration log to this JSON file")
    p_explore.set_defaults(fn=cmd_explore)

    p_inter = sub.add_parser("interactive", help="interactive exploration")
    common(p_inter)
    p_inter.add_argument("--maps", type=int, default=3, help="k")
    p_inter.add_argument("--recommendations", type=int, default=3, help="o")
    p_inter.add_argument("--log", default=None)
    p_inter.set_defaults(fn=cmd_interactive)

    p_serve = sub.add_parser(
        "serve", help="run the multi-session exploration service"
    )
    common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--maps", type=int, default=3, help="k")
    p_serve.add_argument("--recommendations", type=int, default=3, help="o")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="cluster mode: spawn N worker processes over "
                              "one shared-memory copy of each dataset (0 = "
                              "classic single-process serving)")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="live-session cap (further creates get 429; "
                              "per worker in cluster mode)")
    p_serve.add_argument("--session-ttl", type=float, default=1800.0,
                         help="idle seconds before a session is evicted")
    p_serve.add_argument("--deadline-ms", type=int, default=None,
                         help="default per-request deadline in milliseconds "
                              "(clients override with X-Deadline-Ms)")
    p_serve.add_argument("--max-inflight", type=int, default=32,
                         help="concurrent-request hard limit; past it, "
                              "sheddable requests get 503 + Retry-After")
    p_serve.add_argument("--checkpoint-dir", default=None,
                         help="directory for crash-safe session checkpoints "
                              "(restored on startup)")
    p_serve.add_argument("--checkpoint-interval", type=float, default=30.0,
                         help="seconds between periodic checkpoint flushes")
    p_serve.add_argument("--drain-seconds", type=float, default=10.0,
                         help="graceful-shutdown budget for in-flight requests")
    p_serve.add_argument("--log-level", default="info",
                         choices=("debug", "info", "warning", "error"),
                         help="stdlib logging level for repro.* loggers")
    p_serve.add_argument("--log-format", default="text",
                         choices=("text", "json"),
                         help="log line format; json includes trace ids")
    p_serve.add_argument("--no-tracing", action="store_true",
                         help="disable request tracing (spans, /debug/traces, "
                              "?debug=1 breakdowns)")
    p_serve.add_argument("--trace-file", default=None,
                         help="append every finished trace to this JSONL file")
    p_serve.add_argument("--trace-file-max-mb", type=float, default=None,
                         help="rotate --trace-file past this size "
                              "(trace.jsonl -> trace.jsonl.1, keeping 3 "
                              "generations; default: grow unbounded)")
    p_serve.add_argument("--trace-ring-mb", type=float, default=16.0,
                         help="byte budget (MiB) for each in-memory trace "
                              "store backing GET /debug/traces")
    p_serve.add_argument("--trace-sample-rate", type=float, default=1.0,
                         help="tail-sampling keep probability for unremarkable "
                              "traces; error/shed/degraded/slow/burn-window "
                              "traces are always kept")
    p_serve.add_argument("--trace-max-spans", type=int, default=512,
                         help="truncate pathological span trees past this "
                              "many spans per trace (marked truncated: true)")
    p_serve.add_argument("--slow-request-ms", type=float, default=1000.0,
                         help="log requests slower than this at WARNING with "
                              "their span tree (0 logs everything)")
    p_serve.add_argument("--slo-config", default=None,
                         help="JSON file overriding the shipped SLO "
                              "objectives/endpoint classes (GET /slo; see "
                              "docs/OBSERVABILITY.md)")
    p_serve.add_argument("--no-slo", action="store_true",
                         help="disable SLO tracking (GET /slo answers "
                              "enabled: false)")
    p_serve.set_defaults(fn=cmd_serve)

    p_profile = sub.add_parser(
        "profile",
        help="run another subcommand under the sampling profiler",
    )
    p_profile.add_argument("--interval-ms", type=float, default=5.0,
                           help="milliseconds between stack samples")
    p_profile.add_argument("--format", default="collapsed",
                           choices=("collapsed", "json"),
                           help="collapsed stacks (flamegraph.pl/speedscope) "
                                "or JSON with sampling metadata")
    p_profile.add_argument("--output", default=None,
                           help="write the profile to this file instead of "
                                "printing it after the command's output")
    p_profile.add_argument("inner", nargs=argparse.REMAINDER,
                           help="the repro subcommand to profile, after --")
    p_profile.set_defaults(fn=cmd_profile)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
