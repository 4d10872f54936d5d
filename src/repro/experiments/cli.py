"""Command-line runners: the experiments and the invariant auditor.

Installed as ``repro-experiments``.  Examples::

    repro-experiments list
    repro-experiments table1
    repro-experiments fig2 --transactions 200 --seed 7
    repro-experiments all --transactions 200 --csv results/
    repro-experiments all --workers 4   # parallel grid, identical results
    repro-experiments fig2 --executor cohort --shards 4   # sharded run
    repro-experiments scenario list     # the declarative scenario library
    repro-experiments scenario run --all          # envelope-checked runs
    repro-experiments scenario record commuter-doze --out doze.trace.json
    repro-experiments scenario replay doze.trace.json --executor cohort

``--transactions`` trades statistical tightness for wall-clock time; the
paper's setting is 1000 (and takes minutes per figure in pure Python).

Also installed as ``repro-audit`` (:func:`audit_main`): runs one seeded
simulation with per-cycle trace recording and checks every registered
protocol invariant (:mod:`repro.analysis`) against the run, plus — with
``--consistency`` — the transactional-consistency certifier
(:mod:`repro.analysis.consistency`) on the reconstructed history.
Examples::

    repro-audit --protocol f-matrix --transactions 50 --objects 40
    repro-audit --protocol datacycle --consistency update --format json

Exit codes are stable and documented: **0** when every requested check
passed, **1** when any invariant or consistency check found a violation,
**2** on usage errors (unknown flags, bad invariant ids, unknown levels).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

from .figures import EXPERIMENTS, table1_overheads
from .report import format_csv, format_overheads, format_table

__all__ = ["main", "build_parser", "audit_main", "build_audit_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Re-run the SIGMOD'99 broadcast-CC evaluation.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["table1", "faults", "all", "list"],
        help="experiment id (see DESIGN.md's per-experiment index); "
        "'faults' runs the fault-injection resilience report "
        "(docs/FAULTS.md) and exits non-zero on any audit violation",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="committed client transactions per data point (default: the "
        "paper's 1000; the faults report defaults to 30 because audit "
        "runs record every broadcast cycle)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan grid points over N processes (results are bit-identical "
        "to a sequential run; speedup is bounded by the core count)",
    )
    parser.add_argument(
        "--executor",
        choices=["process", "cohort"],
        default="process",
        help="client execution layer: 'cohort' coalesces same-slot clients "
        "into one event (bit-identical to 'process', faster at large "
        "client populations; see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the read-only client population over N worker "
        "processes (requires --executor cohort; results are "
        "bit-identical to --shards 1, see docs/PERFORMANCE.md §5)",
    )
    parser.add_argument(
        "--csv",
        type=pathlib.Path,
        default=None,
        help="directory to write per-experiment CSV files into",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also draw the curves as an ASCII chart (log-scale y)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="write a JSON summary (faults experiment only)",
    )
    return parser


def _run_one(
    name: str,
    transactions: int,
    seed: int,
    csv_dir,
    chart: bool = False,
    workers: int = 1,
    executor: str = "process",
    shards: int = 1,
) -> None:
    runner = EXPERIMENTS[name]
    start = time.time()
    result = runner(
        transactions, seed=seed, workers=workers, executor=executor, shards=shards
    )
    elapsed = time.time() - start
    print(format_table(result))
    if chart:
        from .plotting import render_chart

        print(render_chart(result, log_y=True))
    print(f"[{name}] {elapsed:.1f}s wall clock\n")
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        path = csv_dir / f"{name}.csv"
        path.write_text(format_csv(result))
        print(f"wrote {path}")


def build_audit_parser() -> argparse.ArgumentParser:
    from ..core.validators import PROTOCOL_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description=(
            "Run one seeded simulation with trace recording and check every "
            "registered protocol invariant against the run."
        ),
    )
    parser.add_argument(
        "--protocol",
        choices=sorted(PROTOCOL_NAMES),
        default="f-matrix",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=100,
        help="committed client transactions to audit (default 100; audit "
        "runs record every broadcast cycle, so keep this moderate)",
    )
    parser.add_argument(
        "--objects",
        type=int,
        default=50,
        help="database size (default 50: a full 300-object matrix snapshot "
        "per cycle is memory-heavy)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--modulo-timestamps",
        action="store_true",
        help="broadcast timestamps modulo 2**timestamp_bits (wire format)",
    )
    parser.add_argument(
        "--invariant",
        action="append",
        default=None,
        metavar="ID",
        dest="invariants",
        help="check only this invariant (repeatable; default: all)",
    )
    parser.add_argument(
        "--list-invariants",
        action="store_true",
        help="print the registered invariant ids and exit",
    )
    from ..analysis.consistency import LEVELS

    parser.add_argument(
        "--consistency",
        action="append",
        default=None,
        metavar="LEVEL",
        choices=sorted(LEVELS) + ["all", "update"],
        dest="consistency",
        help="also certify the reconstructed history at this isolation "
        "level (repeatable); 'update' checks the paper's update-consistency "
        "guarantee (update sub-history + each reader's perceived sub-history "
        "serializable), 'all' runs every level checker",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format; json emits one object covering invariant and "
        "consistency results (witnesses included)",
    )
    return parser


def audit_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-audit``.  Exit codes: 0 clean, 1 violation,
    2 usage error (argparse)."""
    import json

    from ..analysis import audit_simulation, invariant_ids
    from ..analysis.consistency import (
        LEVELS,
        certify,
        certify_update_consistency,
    )
    from ..sim import SimulationConfig, run_simulation

    args = build_audit_parser().parse_args(argv)
    if args.list_invariants:
        for invariant_id in invariant_ids():
            print(invariant_id)
        return 0

    # Reject bad invariant ids before paying for the simulation run.
    if args.invariants is not None:
        unknown = [i for i in args.invariants if i not in invariant_ids()]
        if unknown:
            build_audit_parser().error(
                f"unknown invariant id(s) {unknown}; "
                f"see --list-invariants"
            )

    # Expand the requested consistency checks, preserving request order.
    levels: List[str] = []
    check_update = False
    for entry in args.consistency or []:
        if entry == "update":
            check_update = True
        elif entry == "all":
            levels.extend(lv for lv in LEVELS if lv not in levels)
        elif entry not in levels:
            levels.append(entry)

    text = args.format == "text"
    config = SimulationConfig(
        protocol=args.protocol,
        num_objects=args.objects,
        num_client_transactions=args.transactions,
        seed=args.seed,
        modulo_timestamps=args.modulo_timestamps,
        audit=True,
    )
    if text:
        print(
            f"auditing protocol={config.protocol} objects={config.num_objects} "
            f"transactions={config.num_client_transactions} seed={config.seed}"
        )
    result = run_simulation(config)
    if args.invariants is None and result.audit_report is not None:
        report = result.audit_report  # run_simulation already audited
    else:
        report = audit_simulation(result, invariants=args.invariants)
    trace = result.trace
    assert trace is not None and report is not None

    consistency_report = None
    update_report = None
    if levels or check_update:
        history = trace.transactional_history(result.server.database)
        if levels:
            consistency_report = certify(history, levels)
        if check_update:
            update_report = certify_update_consistency(history)

    ok = (
        report.ok
        and (consistency_report is None or consistency_report.ok)
        and (update_report is None or update_report.ok)
    )
    if text:
        print(
            f"run complete: {len(trace.cycles)} broadcast cycles, "
            f"{result.metrics.server_commits} server commits, "
            f"{len(trace.client_commits)} client commits"
        )
        print(report.format())
        if consistency_report is not None:
            print("consistency levels:")
            print("  " + consistency_report.format().replace("\n", "\n  "))
        if update_report is not None:
            print("update consistency:")
            print("  " + update_report.format().replace("\n", "\n  "))
    else:
        payload: dict = {
            "ok": ok,
            "config": {
                "protocol": config.protocol,
                "objects": config.num_objects,
                "transactions": config.num_client_transactions,
                "seed": config.seed,
                "modulo_timestamps": config.modulo_timestamps,
            },
            "invariants": report.to_dict(),
        }
        if consistency_report is not None:
            payload["consistency"] = consistency_report.to_dict()
        if update_report is not None:
            payload["update_consistency"] = update_report.to_dict()
        print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "scenario":
        from ..scenarios.cli import scenario_main

        return scenario_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.shards > 1 and args.executor == "process":
        build_parser().error(
            "--shards requires --executor cohort (the per-process "
            "executor cannot partition the client population)"
        )

    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        print("  table1")
        print("  faults")
        print("also: 'scenario list|run|record|replay' — the declarative")
        print("scenario library with envelopes and trace record/replay")
        print("(docs/SCENARIOS.md)")
        return 0

    if args.experiment == "table1":
        print(format_overheads(table1_overheads()))
        return 0

    if args.experiment == "faults":
        import json

        from .faults import format_faults_report, run_faults_report

        transactions = 30 if args.transactions is None else args.transactions
        start = time.time()
        summaries = run_faults_report(transactions=transactions, seed=args.seed)
        elapsed = time.time() - start
        print(format_faults_report(summaries))
        print(f"[faults] {elapsed:.1f}s wall clock")
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(
                json.dumps([s.to_dict() for s in summaries], indent=2) + "\n"
            )
            print(f"wrote {args.output}")
        return 0 if all(s.audit_ok and s.consistency_ok for s in summaries) else 1

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.experiment == "all":
        print(format_overheads(table1_overheads()))
    transactions = 1000 if args.transactions is None else args.transactions
    for name in names:
        _run_one(
            name,
            transactions,
            args.seed,
            args.csv,
            chart=args.chart,
            workers=args.workers,
            executor=args.executor,
            shards=args.shards,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
