"""The ``repro-trace`` command: traced runs, trace inspection, overhead.

Subcommands::

    repro-trace run --out trace.json          # traced smoke run -> Chrome trace
    repro-trace run --spans spans.jsonl       # raw span stream, one per line
    repro-trace summarize trace.json          # per-span-kind table from a file
    repro-trace overhead --output ratio.json  # traced vs untraced wall clock

The default ``run`` configuration is the observability smoke scenario:
a small faulted (doze + mid-run server crash + lossy uplink) 2-shard
run under the cohort executor — the same shape the
determinism tests pin — so the produced trace exercises every span
kind: client attempts/transactions/uplinks, broadcast cycles, server
commits, and the crash-recovery window.  The emitted JSON loads
directly in Perfetto / chrome://tracing.

Exit codes: **0** success, **1** the overhead check exceeded its bound
(only with ``--fail-above``), **2** usage errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import List, Optional

from .export import chrome_trace, summarize_spans, summarize_trace_events
from .registry import registry_from_result

__all__ = ["main", "build_parser", "smoke_config"]


def smoke_config(
    *,
    transactions: int = 10,
    seed: int = 7,
    shards: int = 2,
    tracing: bool = True,
    trace_buffer: int = 1 << 20,
):
    """The smoke scenario: small, faulted, sharded, every span kind."""
    from ..sim import DozeInterval, FaultPlan, ServerCrash, SimulationConfig

    base = dict(
        protocol="f-matrix",
        num_objects=40,
        object_size_bits=1024,
        timestamp_bits=4,
        modulo_timestamps=True,
        num_clients=6,
        num_update_clients=2,
        client_update_fraction=0.3,
        num_client_transactions=transactions,
        client_txn_length=4,
        seed=seed,
    )
    cb = SimulationConfig(**base).cycle_bits
    return SimulationConfig(
        client_executor="cohort",
        shards=shards,
        tracing=tracing,
        trace_buffer=trace_buffer,
        faults=FaultPlan(
            doze=(DozeInterval(1, 5 * cb, 3 * cb),),
            crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
            uplink_loss_probability=0.3,
        ),
        **base,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Traced simulation runs and Chrome-trace tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run the traced smoke scenario and export its spans"
    )
    run.add_argument("--transactions", type=int, default=10)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--shards",
        type=int,
        default=2,
        help="reader-population shards (each becomes a Perfetto process lane)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard worker processes (0 = sequential in-process, the "
        "default: smoke runs are small and determinism matters more "
        "than speed)",
    )
    run.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="TRACE.JSON",
        help="write the Chrome trace-event document here",
    )
    run.add_argument(
        "--spans",
        type=pathlib.Path,
        default=None,
        metavar="SPANS.JSONL",
        help="write the canonical span stream here, one JSON object per line",
    )
    run.add_argument(
        "--summary",
        action="store_true",
        help="print the span summary table and telemetry registry",
    )

    summarize = sub.add_parser(
        "summarize", help="summarize a previously written Chrome trace"
    )
    summarize.add_argument("trace", type=pathlib.Path, metavar="TRACE.JSON")

    overhead = sub.add_parser(
        "overhead",
        help="compare traced vs untraced wall clock on the smoke scenario",
    )
    overhead.add_argument("--transactions", type=int, default=10)
    overhead.add_argument("--seed", type=int, default=7)
    overhead.add_argument("--shards", type=int, default=2)
    overhead.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per variant; the minimum is reported (default 3)",
    )
    overhead.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="RATIO.JSON",
        help="write {traced_s, untraced_s, ratio} as JSON",
    )
    overhead.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 if traced/untraced exceeds this (omit to only report)",
    )
    return parser


def _execute(config):
    from ..sim import run_simulation

    return run_simulation(config)


def _run_smoke(args: argparse.Namespace):
    from ..sim.shard import run_sharded

    config = smoke_config(
        transactions=args.transactions,
        seed=args.seed,
        shards=args.shards,
    )
    if config.shards > 1:
        return run_sharded(config, workers=args.workers)
    return _execute(config)


def _cmd_run(args: argparse.Namespace) -> int:
    result = _run_smoke(args)
    spans = result.spans or []
    registry = result.telemetry()
    lanes = result.shard_spans or [spans]
    document = chrome_trace(
        lanes,
        counters=registry.as_dict()["counters"],
        profile=result.profile,
    )
    print(
        f"traced run: {len(spans)} spans across "
        f"{len(result.shard_spans or [spans])} shard lane(s), "
        f"{result.spans_dropped} dropped, "
        f"{result.metrics.commit_count} commits"
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document) + "\n")
        print(f"wrote {args.out}")
    if args.spans is not None:
        from .export import spans_to_jsonl

        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(spans_to_jsonl(spans) + "\n")
        print(f"wrote {args.spans}")
    if args.summary:
        print()
        print(summarize_spans(spans))
        print()
        print(registry.render())
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    document = json.loads(args.trace.read_text())
    print(summarize_trace_events(document))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from ..sim.shard import run_sharded

    def measure(tracing: bool) -> float:
        best = float("inf")
        for _ in range(max(1, args.repeats)):
            config = smoke_config(
                transactions=args.transactions,
                seed=args.seed,
                shards=args.shards,
                tracing=tracing,
            )
            start = time.perf_counter()
            if config.shards > 1:
                run_sharded(config, workers=0)
            else:
                _execute(config)
            best = min(best, time.perf_counter() - start)
        return best

    untraced = measure(False)
    traced = measure(True)
    ratio = traced / untraced if untraced > 0 else float("inf")
    payload = {
        "untraced_s": round(untraced, 6),
        "traced_s": round(traced, 6),
        "ratio": round(ratio, 4),
        "repeats": args.repeats,
        "transactions": args.transactions,
        "shards": args.shards,
    }
    print(
        f"untraced {untraced:.3f}s  traced {traced:.3f}s  "
        f"ratio {ratio:.3f}x (best of {args.repeats})"
    )
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.fail_above is not None and ratio > args.fail_above:
        print(f"overhead {ratio:.3f}x exceeds bound {args.fail_above:.2f}x")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "summarize":
        return _cmd_summarize(args)
    return _cmd_overhead(args)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
