"""Command-line interface: ``tcam <command>``.

Covers the full offline/online loop from a shell:

* ``tcam generate`` — write a synthetic dataset profile to CSV;
* ``tcam info``     — Table-2 style statistics of a ratings file;
* ``tcam fit``      — train a TCAM variant and snapshot it to .npz;
* ``tcam recommend``— serve temporal top-k from a snapshot;
* ``tcam evaluate`` — run the paper's evaluation protocol on a file;
* ``tcam report``   — render a topic/influence report card for a
  snapshot against its training data;
* ``tcam check``    — run every static-analysis rule in one pass (rules
  TCAM001–TCAM035, see ``docs/static-analysis.md``);
* ``tcam stream``   — the crash-safe streaming loop
  (``docs/robustness.md``): ``append`` dense events to the durable
  event log, ``run`` the incremental ingestor against a snapshot, and
  inspect ``status`` of log and consumer checkpoints.

Every command works on plain CSV (``user,interval,item,score``), so the
CLI interoperates with any timestamped-rating export.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .baselines import TimeTopicModel, UserTopicModel
from .core import ITCAM, TTCAM, EMEngineConfig, load_params, save_params
from .data import generate, holdout_split, load_cuboid_csv, profile, save_cuboid_csv
from .data.profiles import PROFILES
from .evaluation import build_queries, evaluate_ranking
from .recommend import TemporalRecommender

if TYPE_CHECKING:
    from .streaming import StreamEvent

_Model = TTCAM | ITCAM | UserTopicModel | TimeTopicModel

#: ``--model`` name → constructor over ``(k1, k2, **EM controls)``.
_MODELS: dict[str, Callable[..., _Model]] = {
    "ttcam": lambda k1, k2, **em: TTCAM(k1, k2, **em),
    "itcam": lambda k1, k2, **em: ITCAM(k1, **em),
    "w-ttcam": lambda k1, k2, **em: TTCAM(k1, k2, weighted=True, **em),
    "w-itcam": lambda k1, k2, **em: ITCAM(k1, weighted=True, **em),
    "ut": lambda k1, k2, **em: UserTopicModel(num_topics=k1, **em),
    "tt": lambda k1, k2, **em: TimeTopicModel(num_topics=k2, **em),
}
_MODEL_CHOICES = tuple(_MODELS)


def _build_model(
    name: str,
    k1: int,
    k2: int,
    iters: int,
    seed: int,
    engine: EMEngineConfig = EMEngineConfig(),
) -> _Model:
    """Instantiate a model by CLI name."""
    if name not in _MODELS:
        raise ValueError(f"unknown model {name!r}")
    return _MODELS[name](k1, k2, max_iter=iters, seed=seed, engine=engine)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_ints(text: str) -> tuple[int, ...]:
    """argparse ``type=`` for a comma-separated list of positive integers."""
    try:
        return tuple(_positive_int(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of positive integers, got {text!r}"
        ) from None


def _non_negative_int(text: str) -> int:
    """argparse ``type=`` for seeds, which numpy takes only from 0 up."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse ``type=`` for a finite factor greater than 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _cosine_threshold(text: str) -> float:
    """argparse ``type=`` for a finite cosine threshold in ``[-1, 1]``."""
    value = float(text)
    if not -1.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be finite and in [-1, 1], got {text}")
    return value


def cmd_generate(args: argparse.Namespace) -> int:
    """Write a synthetic dataset profile to CSV."""
    config = profile(args.profile, scale=args.scale, seed=args.seed)
    cuboid, _truth = generate(config)
    rows = save_cuboid_csv(cuboid, args.output)
    print(
        f"wrote {rows} ratings ({cuboid.num_users} users, "
        f"{cuboid.num_items} items, {cuboid.num_intervals} intervals) "
        f"to {args.output}"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Print Table-2 style statistics of a ratings CSV."""
    cuboid = load_cuboid_csv(args.input)
    print(f"users:     {cuboid.num_users}")
    print(f"items:     {cuboid.num_items}")
    print(f"intervals: {cuboid.num_intervals}")
    print(f"ratings:   {cuboid.nnz}")
    print(f"density:   {cuboid.density():.5f}")
    activity = cuboid.user_activity()
    print(f"ratings/user: mean {activity.mean():.1f}, median {np.median(activity):.0f}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """Train a TCAM variant and snapshot it to .npz."""
    from .robustness import CheckpointError, CheckpointManager

    if args.model in ("ut", "tt"):
        print("fit snapshots support the TCAM variants only", file=sys.stderr)
        return 2
    cuboid = load_cuboid_csv(args.input)
    engine = EMEngineConfig(block_size=args.block_size)
    model = _build_model(args.model, args.k1, args.k2, args.iters, args.seed, engine)
    checkpoint = resume_from = None
    if args.checkpoint_dir is not None:
        checkpoint = CheckpointManager(
            args.checkpoint_dir, every=args.checkpoint_every
        )
        if args.resume:
            resume_from = checkpoint
    elif args.resume:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        model.fit(
            cuboid,
            checkpoint=checkpoint,
            resume_from=resume_from,
            monitor=True if args.health_guard else None,
        )
    except CheckpointError as exc:
        print(f"tcam fit: {exc}", file=sys.stderr)
        return 2
    trace = model.trace_
    params = model.params_
    assert trace is not None and params is not None  # fit() always sets both
    path = save_params(params, args.output, mmap_layout=args.mmap_layout)
    lam = params.lambda_u
    print(
        f"fitted {model.name} in {trace.iterations} EM iterations "
        f"(log-likelihood {trace.final_log_likelihood:.1f})"
    )
    print(f"mean personal-interest influence λ̄ = {lam.mean():.3f}")
    print(f"snapshot written to {path}")
    if args.mmap_layout:
        print("derived serving members written: the snapshot is mapped in place when served")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    """Serve temporal top-k from a snapshot, degrading to popularity."""
    from .robustness import ServingUnavailableError, SnapshotCorruptError

    fallbacks = []
    if args.fallback_input is not None:
        from .baselines import GlobalPopularity

        fallbacks.append(GlobalPopularity().fit(load_cuboid_csv(args.fallback_input)))
    try:
        recommender = TemporalRecommender.from_snapshot(args.model, fallbacks=fallbacks)
    except SnapshotCorruptError as exc:
        print(f"snapshot unusable and no fallback given: {exc}", file=sys.stderr)
        return 2
    if args.batch_file is not None:
        return _recommend_batch_file(recommender, args)
    if args.serve_dtype != "float64":
        print(
            f"--select-dtype {args.serve_dtype} applies to --batch-file mode "
            "only; single queries always score in exact float64",
            file=sys.stderr,
        )
        return 2
    if args.user is None or args.interval is None:
        print(
            "either --batch-file or both --user and --interval are required",
            file=sys.stderr,
        )
        return 2
    try:
        result, status = recommender.recommend_with_status(
            args.user, args.interval, k=args.k, method=args.engine
        )
    except ServingUnavailableError as exc:
        print(f"serving unavailable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    for rank, rec in enumerate(result.recommendations, start=1):
        print(f"{rank:3d}. item {rec.item:6d}  score {rec.score:.6f}")
    if status.degraded:
        print(f"[DEGRADED: served by {status.served_by} — {status.reason}]")
    else:
        print(
            f"[{args.engine or 'batch'}: fully scored {result.items_scored} of "
            f"{recommender.model.params_.num_items} items]"
        )
    return 0


def _recommend_batch_file(recommender: TemporalRecommender, args: argparse.Namespace) -> int:
    """Serve a file of ``user,interval`` queries as one batch."""
    from .robustness import ServingUnavailableError

    if args.batch_file == "-":
        source, text = "<stdin>", sys.stdin.read()
    else:
        source, text = args.batch_file, Path(args.batch_file).read_text()
    queries: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            user, interval = line.split(",")[:2]
            queries.append((int(user), int(interval)))
        except ValueError:
            print(
                f"{source}:{lineno}: expected 'user,interval' with "
                f"integer fields, got {line!r}",
                file=sys.stderr,
            )
            return 2
    if not queries:
        print(f"no queries in {source}", file=sys.stderr)
        return 2
    try:
        results, statuses = recommender.recommend_batch_with_status(
            queries, k=args.k, dtype=args.serve_dtype, row_block=args.batch_size
        )
    except ServingUnavailableError as exc:
        print(f"serving unavailable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid batch request: {exc}", file=sys.stderr)
        return 2
    degraded = 0
    for (user, interval), result, status in zip(queries, results, statuses):
        items = " ".join(
            f"{rec.item}:{rec.score:.6f}" for rec in result.recommendations
        )
        tag = f"  [degraded: {status.served_by} — {status.reason}]" if status.degraded else ""
        print(f"({user},{interval}) {items}{tag}")
        degraded += int(status.degraded)
    cache = statuses[-1].cache
    print(
        f"[batch: {len(queries)} queries ({degraded} degraded), "
        f"dtype {args.serve_dtype}, cache hit-rate {cache.hit_rate:.2f}]"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the process-parallel serving service until SIGTERM/SIGINT."""
    from .serving_service import ServiceConfig, run_service

    config = ServiceConfig(
        snapshot=args.model,
        host=args.host,
        port=args.port,
        workers=args.workers,
        serve_dtype=args.serve_dtype,
        max_batch=args.max_batch,
        generation_file=args.generation_file,
    )
    return run_service(config)


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Run the holdout evaluation protocol on a ratings CSV."""
    cuboid = load_cuboid_csv(args.input)
    split = holdout_split(cuboid, seed=args.seed)
    queries = build_queries(split, max_queries=args.max_queries, seed=args.seed)
    model = _build_model(args.model, args.k1, args.k2, args.iters, args.seed)
    model.fit(split.train)
    report = evaluate_ranking(model, queries, ks=args.ks)
    print(f"model: {model.name}; {report.num_queries} temporal queries")
    header = "metric    " + "".join(f"@{k:<7d}" for k in report.ks)
    print(header)
    for metric in ("precision", "ndcg", "f1"):
        row = f"{metric:10s}" + "".join(
            f"{report.at(metric, k):<8.4f}" for k in report.ks
        )
        print(row)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a topic/influence report card for a snapshot."""
    from .analysis.report import model_report
    from .core.params import TTCAMParameters
    from .data.cuboid import RatingCuboid

    params = load_params(args.model)
    if not isinstance(params, TTCAMParameters):
        print("report currently supports TTCAM snapshots only", file=sys.stderr)
        return 2
    cuboid = load_cuboid_csv(args.input)
    if (
        cuboid.num_items > params.num_items
        or cuboid.num_intervals > params.num_intervals
    ):
        print("ratings file exceeds the snapshot's dimensions", file=sys.stderr)
        return 2
    if (
        cuboid.num_items < params.num_items
        or cuboid.num_intervals < params.num_intervals
    ):
        # A CSV only names the items/intervals that appear in it; pad the
        # dimensions back to the snapshot's catalogue.
        cuboid = RatingCuboid(
            users=cuboid.users,
            intervals=cuboid.intervals,
            items=cuboid.items,
            scores=cuboid.scores,
            num_users=max(cuboid.num_users, params.num_users),
            num_intervals=params.num_intervals,
            num_items=params.num_items,
            user_index=cuboid.user_index,
            item_index=cuboid.item_index,
        )
    print(model_report(params, cuboid, max_topics=args.max_topics))
    return 0


def _read_dense_events(path: Path) -> list[StreamEvent]:
    """Read dense ``user,interval,item[,score]`` rows from a CSV file.

    Raises :class:`ValueError` (one line, naming ``file:line`` for a bad
    row) when the header lacks a column, a field is not a number, or a
    row is not a valid event (a negative id, a score that is not finite
    and positive).
    """
    import csv

    from .streaming import StreamEvent

    events: list[StreamEvent] = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"user", "interval", "item"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or ()))
            raise ValueError(f"{path} is missing columns {missing}")
        for row in reader:
            try:
                score = float(row["score"]) if row.get("score") else 1.0
                events.append(
                    StreamEvent(int(row["user"]), int(row["interval"]), int(row["item"]), score)
                )
            except (TypeError, ValueError) as exc:  # TypeError: a short row's None
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return events


def cmd_stream_append(args: argparse.Namespace) -> int:
    """Durably append dense CSV events to a streaming event log."""
    from .streaming import EventLog

    try:
        events = _read_dense_events(Path(args.input))
    except (OSError, ValueError) as exc:
        print(f"tcam stream append: {exc}", file=sys.stderr)
        return 2
    with EventLog(args.log, segment_events=args.segment_events) as log:
        before = log.next_offset
        offset = log.append(events)
    print(f"appended {offset - before} events; log now holds {offset}")
    return 0


def cmd_stream_run(args: argparse.Namespace) -> int:
    """Fold durable events into a fitted snapshot, crash-safely."""
    from .core.params import TTCAMParameters
    from .robustness import CheckpointError, SnapshotCorruptError
    from .streaming import EventLog, StreamIngestor

    try:
        params = load_params(args.snapshot)
    except (SnapshotCorruptError, FileNotFoundError) as exc:
        print(f"tcam stream run: {exc}", file=sys.stderr)
        return 2
    if not isinstance(params, TTCAMParameters):
        print("tcam stream run: streaming ingestion needs a TTCAM snapshot", file=sys.stderr)
        return 2
    with EventLog(args.log) as log:
        try:
            ingestor = StreamIngestor(
                log,
                params,
                args.checkpoints,
                batch_events=args.batch_events,
                drift_threshold=args.drift_threshold,
                checkpoint_every=args.checkpoint_every,
            )
        except CheckpointError as exc:
            print(f"tcam stream run: {exc}", file=sys.stderr)
            return 2
        report = ingestor.run(max_batches=args.max_batches)
        if ingestor.checkpointed_batches != ingestor.batches:
            ingestor.checkpoint()
        if args.output is not None:
            final = save_params(ingestor.params, args.output)
            print(f"wrote folded snapshot to {final}")
    print(
        f"applied {report.applied} events in {report.batches} micro-batches "
        f"(skipped {report.skipped}, boundaries {report.boundaries}); "
        f"consumer offset {report.offset}"
    )
    return 0


def cmd_stream_status(args: argparse.Namespace) -> int:
    """Show the durable state of an event log and its consumer."""
    from .robustness import CheckpointManager
    from .streaming import EventLog

    with EventLog(args.log) as log:
        print(f"log: {log.next_offset} durable events in {len(log.segment_paths)} segment(s)")
    if args.checkpoints is not None:
        manager = CheckpointManager(args.checkpoints, prefix="stream")
        checkpoint = manager.latest()
        if checkpoint is None:
            print("consumer: no checkpoint yet (offset 0)")
        else:
            offset = checkpoint.meta.get("offset", 0)
            print(
                f"consumer: offset {offset} after {checkpoint.iteration} "
                f"micro-batches ({checkpoint.path})"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``tcam`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tcam",
        description="Temporal context-aware user behavior modeling (SIGMOD 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    p_gen.add_argument("--profile", choices=sorted(PROFILES), default="digg")
    p_gen.add_argument("--scale", type=_positive_float, default=0.5)
    p_gen.add_argument("--seed", type=_non_negative_int, default=None)
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_info = sub.add_parser("info", help="statistics of a ratings CSV")
    p_info.add_argument("--input", required=True)
    p_info.set_defaults(func=cmd_info)

    p_fit = sub.add_parser("fit", help="train a model and snapshot it")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--model", choices=_MODEL_CHOICES, default="ttcam")
    p_fit.add_argument("--k1", type=_positive_int, default=10, help="user-oriented topics")
    p_fit.add_argument("--k2", type=_positive_int, default=10, help="time-oriented topics")
    p_fit.add_argument("--iters", type=_positive_int, default=60)
    p_fit.add_argument("--seed", type=_non_negative_int, default=0)
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for periodic EM checkpoints",
    )
    p_fit.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=5,
        help="checkpoint every N EM iterations",
    )
    p_fit.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    p_fit.add_argument(
        "--health-guard",
        action="store_true",
        help="validate numerical invariants each iteration and roll back on violation",
    )
    p_fit.add_argument(
        "--block-size",
        type=_positive_int,
        default=None,
        help="ratings per E-step block (default: 32768, capped at the dataset)",
    )
    p_fit.add_argument(
        "--mmap-layout",
        action="store_true",
        help="also store the derived serving arrays (rescore transpose, "
        "context vectors, int8 selection form) in the snapshot; `tcam "
        "recommend` / `tcam serve` then map it in place and page "
        "parameters in instead of loading them eagerly",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_rec = sub.add_parser("recommend", help="serve top-k from a snapshot")
    p_rec.add_argument("--model", required=True)
    p_rec.add_argument(
        "--user", type=int, default=None, help="querying user (single-query mode)"
    )
    p_rec.add_argument(
        "--interval", type=int, default=None, help="queried interval (single-query mode)"
    )
    p_rec.add_argument("-k", type=int, default=10)
    p_rec.add_argument(
        "--engine",
        choices=("ta", "bf"),
        default=None,
        help="answer a single query with the paper's reference engine "
        "(TCAM-TA / TCAM-BF) instead of the batch scorer; same result",
    )
    p_rec.add_argument(
        "--fallback-input",
        default=None,
        help="ratings CSV used to fit a popularity fallback for degraded serving",
    )
    p_rec.add_argument(
        "--batch-file",
        default=None,
        help="CSV of user,interval pairs served as one batch via the GEMM "
        "engine; '-' reads the queries from stdin",
    )
    p_rec.add_argument(
        "--batch-size",
        type=_positive_int,
        default=64,
        help="queries scored per GEMM block in batch mode",
    )
    p_rec.add_argument(
        "--select-dtype",
        "--serve-dtype",
        dest="serve_dtype",
        choices=("float64", "int8"),
        default="float64",
        help="batch candidate-selection dtype: int8 quantizes selection with a "
        "proven margin and stays bitwise identical to float64 (batch mode only)",
    )
    p_rec.set_defaults(func=cmd_recommend)

    p_serve = sub.add_parser(
        "serve",
        help="run the process-parallel TCP serving service on a snapshot",
    )
    p_serve.add_argument("--model", required=True, help="snapshot every worker opens")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7315, help="TCP port (0 picks a free port)"
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=2, help="worker process count (= user shards)"
    )
    p_serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=64,
        help="most queries one micro-batch coalesces, per worker",
    )
    p_serve.add_argument(
        "--select-dtype",
        "--serve-dtype",
        dest="serve_dtype",
        choices=("float64", "int8"),
        default="float64",
        help="candidate-selection dtype workers score with",
    )
    p_serve.add_argument(
        "--generation-file",
        default=None,
        help="durable hot-swap record (default: <snapshot>.generation.json)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_eval = sub.add_parser("evaluate", help="run the evaluation protocol")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--model", choices=_MODEL_CHOICES, default="ttcam")
    p_eval.add_argument("--k1", type=_positive_int, default=10)
    p_eval.add_argument("--k2", type=_positive_int, default=10)
    p_eval.add_argument("--iters", type=_positive_int, default=60)
    p_eval.add_argument("--ks", type=_positive_ints, default="1,5,10")
    p_eval.add_argument("--max-queries", type=_positive_int, default=300)
    p_eval.add_argument("--seed", type=_non_negative_int, default=0)
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="topic/influence report card")
    p_report.add_argument("--model", required=True)
    p_report.add_argument("--input", required=True, help="training ratings CSV")
    p_report.add_argument("--max-topics", type=_positive_int, default=None)
    p_report.set_defaults(func=cmd_report)

    # Listed for ``tcam --help`` only: ``main`` hands everything after
    # ``check`` to the analyser's own command line, unparsed.
    sub.add_parser("check", help="every static-analysis rule in one pass", add_help=False)

    p_stream = sub.add_parser(
        "stream", help="crash-safe streaming ingestion (see docs/robustness.md)"
    )
    stream_sub = p_stream.add_subparsers(dest="stream_command", required=True)

    p_sa = stream_sub.add_parser(
        "append", help="durably append dense CSV events to the event log"
    )
    p_sa.add_argument("--log", required=True, help="event-log directory")
    p_sa.add_argument("--input", required=True, help="CSV with user,interval,item[,score]")
    p_sa.add_argument("--segment-events", type=_positive_int, default=4096)
    p_sa.set_defaults(func=cmd_stream_append)

    p_sr = stream_sub.add_parser(
        "run", help="fold durable events into a TTCAM snapshot"
    )
    p_sr.add_argument("--log", required=True, help="event-log directory")
    p_sr.add_argument("--snapshot", required=True, help="fitted TTCAM .npz snapshot")
    p_sr.add_argument("--checkpoints", required=True, help="consumer checkpoint directory")
    p_sr.add_argument("--output", default=None, help="write the folded snapshot here")
    p_sr.add_argument("--batch-events", type=_positive_int, default=256)
    p_sr.add_argument("--drift-threshold", type=_cosine_threshold, default=0.85)
    p_sr.add_argument("--checkpoint-every", type=_positive_int, default=4)
    p_sr.add_argument("--max-batches", type=_positive_int, default=None)
    p_sr.set_defaults(func=cmd_stream_run)

    p_ss = stream_sub.add_parser(
        "status", help="durable event count and consumer offset"
    )
    p_ss.add_argument("--log", required=True, help="event-log directory")
    p_ss.add_argument("--checkpoints", default=None, help="consumer checkpoint directory")
    p_ss.set_defaults(func=cmd_stream_status)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "check":
        from .tooling.core import main as check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
