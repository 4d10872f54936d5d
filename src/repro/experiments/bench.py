"""Wall-clock benchmark harness (installed as ``repro-bench``).

Times the canonical workloads every perf PR cares about and writes the
measurements, together with :meth:`SimulationConfig.fingerprint` tags, to
a JSON document (default ``BENCH_fastpath.json``) so successive runs are
comparable::

    repro-bench                       # full canonical run
    repro-bench --smoke               # tiny run for CI crash-detection
    repro-bench --append --label after-my-change

Three sections:

* **simulations** — one seeded end-to-end simulation per protocol at the
  paper's Table 1 scale (300 objects, 1 KB objects); each record carries
  the run's metrics (``response_mean``, ``restart_mean``, ``events``) so
  two benchmark runs double as a same-seed determinism cross-check;
* **micro** — hot-path micro-benchmarks: :meth:`ControlMatrix.apply_commit`,
  per-cycle snapshot freezing (:meth:`BroadcastServer.begin_cycle`), and
  :meth:`ReadValidator.validate_read` over long read sets;
* **sweeps** — the experiment suite (``repro-experiments all``'s grid)
  timed sequentially and, when ``--workers`` > 1, through the parallel
  sweep executor.  Parallel speedup is bounded by the machine's core
  count (recorded as ``cpu_count``);
* **scaling** — client-count scaling (``repro-bench --sections scaling
  --output BENCH_scaling.json``).  The standard tier times the
  per-process executor vs. the slot-coalesced cohort executor on the
  same seeded workload and checks their metrics are bit-identical; the
  opt-in **mega tier** (16 384 … 1 000 000 clients; the full run and
  the smoke run's one 16 384-client point) times the sharded cohort
  executor, cross-checked against ``shards=1`` at every point.  Every
  point records its own provenance (actual ``os.cpu_count()``, shard
  count, effective pool workers, and ``getrusage`` max-RSS high-water
  marks for the parent and its pool workers), and a re-run at one point
  double-checks same-seed determinism.

With ``--append`` the run is added to the existing document's ``runs``
list and a ``comparison`` block (first vs. last run: per-workload speedup
plus a determinism verdict) is recomputed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import random
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.control_matrix import ControlMatrix
from ..core.cycles import UnboundedCycles
from ..core.validators import ControlSnapshot, make_validator
from ..server.server import BroadcastServer
from ..sim.config import SimulationConfig
from ..sim.simulation import run_simulation
from .figures import EXPERIMENTS

__all__ = [
    "bench_simulations",
    "bench_micro",
    "bench_sweeps",
    "bench_scaling",
    "MEGA_CLIENT_COUNTS",
    "SCALING_CLIENT_COUNTS",
    "run_bench",
    "compare_runs",
    "build_parser",
    "main",
]

#: every section run_bench knows how to execute
SECTIONS = ("simulations", "micro", "sweeps", "scaling")

#: experiments timed by the sweeps section, in a fixed canonical order
SWEEP_NAMES = (
    "fig2",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "ablation-groups",
    "ablation-caching",
)


def _timed(fn: Callable[[], Any]) -> "tuple[float, Any]":
    start = time.perf_counter()
    value = fn()
    return (time.perf_counter() - start, value)


# ----------------------------------------------------------------------
# section: end-to-end simulations
# ----------------------------------------------------------------------

def _canonical_configs(
    transactions: int, seed: int
) -> List["tuple[str, SimulationConfig]"]:
    base = dict(num_client_transactions=transactions, seed=seed)
    return [
        ("f-matrix", SimulationConfig(protocol="f-matrix", **base)),
        ("f-matrix-no", SimulationConfig(protocol="f-matrix-no", **base)),
        ("r-matrix", SimulationConfig(protocol="r-matrix", **base)),
        ("datacycle", SimulationConfig(protocol="datacycle", **base)),
        (
            "group-matrix-16",
            SimulationConfig(protocol="group-matrix", num_groups=16, **base),
        ),
        (
            "f-matrix-modulo",
            SimulationConfig(
                protocol="f-matrix", modulo_timestamps=True, **base
            ),
        ),
    ]


def bench_simulations(
    *, transactions: int = 500, seed: int = 42
) -> List[Dict[str, Any]]:
    """One timed simulation per protocol at Table 1 scale."""
    records: List[Dict[str, Any]] = []
    for name, config in _canonical_configs(transactions, seed):
        seconds, run = _timed(lambda cfg=config: run_simulation(cfg))
        records.append(
            {
                "name": name,
                "protocol": config.protocol,
                "fingerprint": config.fingerprint(),
                "transactions": transactions,
                "seconds": round(seconds, 4),
                "events": run.events,
                "events_per_second": round(run.events / seconds, 1),
                # same-seed determinism evidence: these must not move
                # across benchmark runs of the same workload
                "response_mean": run.response_time.mean,
                "restart_mean": run.restart_ratio.mean,
            }
        )
    return records


# ----------------------------------------------------------------------
# section: micro-benchmarks
# ----------------------------------------------------------------------

def bench_micro(
    *,
    num_objects: int = 300,
    commits: int = 3000,
    cycles: int = 2000,
    validate_txns: int = 100,
    validate_txn_length: int = 64,
    seed: int = 9,
) -> List[Dict[str, Any]]:
    """Hot-path micro-benchmarks with deterministic workload content."""
    records: List[Dict[str, Any]] = []

    # -- ControlMatrix.apply_commit ------------------------------------
    rng = random.Random(seed)
    jobs = []
    cycle = 0
    for k in range(commits):
        if k % 3 == 0:
            cycle += 1
        jobs.append(
            (
                cycle,
                rng.sample(range(num_objects), 4),
                rng.sample(range(num_objects), 4),
            )
        )
    cm = ControlMatrix(num_objects)

    def _apply_all() -> None:
        for commit_cycle, rs, ws in jobs:
            cm.apply_commit(commit_cycle, rs, ws)

    seconds, _ = _timed(_apply_all)
    records.append(
        {
            "name": "apply_commit",
            "iterations": commits,
            "seconds": round(seconds, 4),
            "per_op_us": round(seconds / commits * 1e6, 2),
            "num_objects": num_objects,
            "checksum": int(cm.array.sum()),
        }
    )

    # -- per-cycle snapshot freezing -----------------------------------
    def _freeze(commit_every: Optional[int], label: str) -> None:
        server = BroadcastServer(num_objects, "f-matrix")
        freeze_rng = random.Random(seed + 1)
        pending = []
        for c in range(1, cycles + 1):
            if commit_every is not None and c % commit_every == 0:
                pending.append(
                    (
                        c,
                        freeze_rng.sample(range(num_objects), 4),
                        freeze_rng.sample(range(num_objects), 4),
                    )
                )

        def _run() -> int:
            checksum = 0
            jobs_iter = iter(pending)
            upcoming = next(jobs_iter, None)
            for c in range(1, cycles + 1):
                broadcast = server.begin_cycle(c)
                assert broadcast.snapshot.matrix is not None
                checksum ^= int(broadcast.snapshot.matrix[0, 0])
                while upcoming is not None and upcoming[0] == c:
                    _cycle, rs, ws = upcoming
                    server.commit_update(
                        f"s{c}", rs, {w: c for w in ws}, cycle=c
                    )
                    upcoming = next(jobs_iter, None)
            return checksum

        run_seconds, checksum = _timed(_run)
        records.append(
            {
                "name": label,
                "iterations": cycles,
                "seconds": round(run_seconds, 4),
                "per_op_us": round(run_seconds / cycles * 1e6, 2),
                "num_objects": num_objects,
                "checksum": checksum,
            }
        )

    _freeze(4, "snapshot_freeze_mixed")      # a commit every 4th cycle
    _freeze(None, "snapshot_freeze_quiescent")  # no commits: pure reuse

    # -- validate_read over long read sets -----------------------------
    arithmetic = UnboundedCycles()
    matrix = np.zeros((num_objects, num_objects), dtype=np.int64)
    vector = np.zeros(num_objects, dtype=np.int64)
    read_rng = random.Random(seed + 2)
    programs = [
        read_rng.sample(range(num_objects), validate_txn_length)
        for _ in range(validate_txns)
    ]
    for proto, snapshot in (
        ("f-matrix", ControlSnapshot(cycle=50, matrix=matrix)),
        ("datacycle", ControlSnapshot(cycle=50, vector=vector)),
    ):
        validator = make_validator(proto, arithmetic=arithmetic)

        def _validate() -> int:
            accepted = 0
            for program in programs:
                validator.begin()
                for obj in program:
                    accepted += int(validator.validate_read(obj, snapshot))
            return accepted

        seconds, accepted = _timed(_validate)
        reads = validate_txns * validate_txn_length
        records.append(
            {
                "name": f"validate_read_{proto}",
                "iterations": reads,
                "seconds": round(seconds, 4),
                "per_op_us": round(seconds / reads * 1e6, 2),
                "txn_length": validate_txn_length,
                "checksum": accepted,
            }
        )
    return records


# ----------------------------------------------------------------------
# section: the experiment-suite sweeps
# ----------------------------------------------------------------------

def _run_experiment(
    name: str, transactions: int, seed: int, workers: int
) -> Any:
    runner = EXPERIMENTS[name]
    if workers > 1:
        return runner(transactions, seed=seed, workers=workers)
    return runner(transactions, seed=seed)


def bench_sweeps(
    *,
    names: Sequence[str] = SWEEP_NAMES,
    transactions: int = 300,
    seed: int = 42,
    workers: int = 0,
) -> Dict[str, Any]:
    """Time the experiment grid sequentially and (optionally) in parallel."""
    out: Dict[str, Any] = {"transactions": transactions, "seed": seed}

    def _time_all(n_workers: int) -> "tuple[float, List[Dict[str, Any]]]":
        rows: List[Dict[str, Any]] = []
        total = 0.0
        for name in names:
            seconds, result = _timed(
                lambda nm=name: _run_experiment(
                    nm, transactions, seed, n_workers
                )
            )
            total += seconds
            rows.append(
                {
                    "name": name,
                    "seconds": round(seconds, 3),
                    "points": sum(
                        len(s.points) for s in result.series.values()
                    ),
                }
            )
        return (total, rows)

    sequential_seconds, rows = _time_all(1)
    out["experiments"] = rows
    out["sequential_seconds"] = round(sequential_seconds, 3)
    if workers > 1:
        parallel_seconds, parallel_rows = _time_all(workers)
        out["workers"] = workers
        out["parallel_experiments"] = parallel_rows
        out["parallel_seconds"] = round(parallel_seconds, 3)
        out["parallel_speedup"] = round(
            sequential_seconds / parallel_seconds, 3
        )
    return out


# ----------------------------------------------------------------------
# section: client-count scaling (per-process vs. cohort executor)
# ----------------------------------------------------------------------

#: client populations of the standard scaling tier (process vs. cohort)
SCALING_CLIENT_COUNTS = (8, 64, 512, 4096)

#: client populations of the mega tier (sharded cohort executor);
#: per-population transaction counts taper so the top points stay
#: re-runnable, and shard counts grow with the population
MEGA_CLIENT_COUNTS = (16_384, 65_536, 262_144, 1_000_000)
_MEGA_TRANSACTIONS = {16_384: 8, 65_536: 8, 262_144: 4, 1_000_000: 2}
_MEGA_SHARDS = {16_384: 2, 65_536: 2, 262_144: 4, 1_000_000: 4}

#: above this population the mega tier drops per-transaction sample
#: objects (``keep_samples=False``) — metrics stay array-backed only
_SAMPLE_CAP = 262_144

#: the broadcast-bound workload the cohort executor is built for: few
#: objects, short cycles, think times far below the cycle length — so
#: many clients wait on the same slot and coalescing pays.  Table 1's
#: defaults (300 objects, sparse slots) are reported alongside as the
#: honest low end; see docs/PERFORMANCE.md.
_SCALING_DENSE = dict(
    protocol="f-matrix",
    num_objects=16,
    client_txn_length=12,
    mean_inter_operation_delay=4096.0,
    mean_inter_transaction_delay=16384.0,
    server_txn_interval=2_000_000.0,
)


def _metric_signature(result: Any) -> Dict[str, Any]:
    """The observable outcome of a run, for bit-identity comparison.

    Everything the paper's metrics are computed from: per-transaction
    commits are folded into the summary stats, the counters come along
    verbatim.  Two executors producing equal signatures on the same
    seeded config are observably equivalent.
    """
    metrics = result.metrics
    return {
        "commits": metrics.commit_count,
        "reads_delivered": metrics.reads_delivered,
        "reads_rejected": metrics.reads_rejected,
        "listening_bits": metrics.listening_bits,
        "response_mean": result.response_time.mean,
        "restart_mean": result.restart_ratio.mean,
        "sim_time": result.sim_time,
    }


def _best_of(config: SimulationConfig, trials: int) -> "tuple[float, Any]":
    best: Optional[float] = None
    result: Any = None
    for _ in range(trials):
        gc.collect()
        seconds, result = _timed(lambda: run_simulation(config))
        best = seconds if best is None else min(best, seconds)
    assert best is not None
    return (best, result)


def _provenance(shards: int) -> Dict[str, Any]:
    """Per-point execution provenance: what actually ran, where.

    Records the machine's real core count (not the run header's
    ``workers`` request) and, for sharded points, the pool size
    :func:`~repro.sim.shard.run_sharded` resolves by default — the
    parent runs the primary shard itself, so the pool gets at most
    ``shards - 1`` workers and at most ``cpus - 1`` cores.
    """
    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "shards": shards,
        "effective_workers": (
            min(shards - 1, max(1, cpus - 1)) if shards > 1 else 0
        ),
    }


def _max_rss_kb() -> Dict[str, int]:
    """Peak-memory provenance: max-RSS high-water marks, in KiB.

    ``ru_maxrss`` is a monotone per-process high-water mark (KiB on
    Linux), so a point's value bounds everything run *up to and
    including* that point — call this when the point finishes.  The
    parent's own mark covers the primary shard; the children's mark
    covers the pool workers.
    """
    return {
        "max_rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "max_rss_children_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }


def _mega_point(
    base: SimulationConfig, num_clients: int, transactions: int
) -> Dict[str, Any]:
    """One mega-tier point: sharded cohort run plus an identity check.

    ``metrics_identical`` aggregates every basis in ``identity_basis``:
    the sharded run is compared against the same config at
    ``shards=1``.  Above ``_SAMPLE_CAP`` clients the run drops
    per-transaction sample objects (``keep_samples=False``); the
    signature is array-backed either way, so the comparison loses
    nothing.
    """
    txns = min(_MEGA_TRANSACTIONS[num_clients], transactions)
    shards = _MEGA_SHARDS[num_clients]
    keep = num_clients < _SAMPLE_CAP
    config = base.replace(
        num_clients=num_clients,
        num_client_transactions=txns,
        client_executor="cohort",
        keep_samples=keep,
    )
    point: Dict[str, Any] = {
        "clients": num_clients,
        "transactions": txns,
        "keep_samples": keep,
        **_provenance(shards),
    }
    gc.collect()
    seconds, result = _timed(
        lambda: run_simulation(config.replace(shards=shards))
    )
    sharded = _metric_signature(result)
    point["cohort_sharded_seconds"] = round(seconds, 4)
    point["events"] = result.events
    point["clients_per_second"] = round(num_clients / seconds, 1)
    gc.collect()
    single_seconds, single = _timed(lambda: run_simulation(config))
    point["cohort_seconds"] = round(single_seconds, 4)
    point["speedup"] = round(single_seconds / seconds, 2)
    basis = {"sharded-vs-unsharded": sharded == _metric_signature(single)}
    point["identity_basis"] = basis
    point["metrics_identical"] = all(basis.values())
    point["signature"] = sharded
    point.update(_max_rss_kb())
    return point


def bench_scaling(
    *,
    clients: Sequence[int] = SCALING_CLIENT_COUNTS,
    transactions: int = 8,
    seed: int = 42,
    trials: int = 3,
    include_defaults: bool = True,
    mega: Sequence[int] = (),
) -> Dict[str, Any]:
    """Time the executors over a client sweep, with identity verdicts.

    The standard tier runs ``process`` vs. ``cohort`` on the *same*
    seeded workload at every point; their metric signatures must match
    exactly (the cohort path is a bit-identical reorganisation, not an
    approximation).  A cohort re-run at the second point provides the
    same-seed determinism verdict.  The mega tier (``mega`` populations
    drawn from :data:`MEGA_CLIENT_COUNTS`, timed once each; none by
    default) runs the sharded cohort executor — see :func:`_mega_point`
    for its identity basis.
    """
    base = SimulationConfig(
        num_client_transactions=transactions, seed=seed, **_SCALING_DENSE
    )
    # warm both code paths (and the lazy scipy import inside summarize)
    # so the first timed point doesn't pay one-time costs
    for executor in ("process", "cohort"):
        run_simulation(
            base.replace(
                num_clients=8, num_client_transactions=2, client_executor=executor
            )
        )

    out: Dict[str, Any] = {
        "config": dict(_SCALING_DENSE),
        "transactions": transactions,
        "seed": seed,
        "trials": trials,
    }
    points: List[Dict[str, Any]] = []
    determinism_ok = True
    for position, num_clients in enumerate(clients):
        config = base.replace(num_clients=num_clients)
        point: Dict[str, Any] = {"clients": num_clients, **_provenance(1)}
        signatures: Dict[str, Dict[str, Any]] = {}
        for executor in ("process", "cohort"):
            seconds, result = _best_of(
                config.replace(client_executor=executor), trials
            )
            signatures[executor] = _metric_signature(result)
            point[f"{executor}_seconds"] = round(seconds, 4)
            point[f"{executor}_events"] = result.events
        point["speedup"] = round(
            point["process_seconds"] / point["cohort_seconds"], 2
        )
        point["metrics_identical"] = (
            signatures["process"] == signatures["cohort"]
        )
        point["signature"] = signatures["cohort"]
        if position == min(1, len(clients) - 1):
            # same-seed determinism: a fresh cohort run must reproduce
            # the first one bit for bit
            rerun = run_simulation(config.replace(client_executor="cohort"))
            determinism_ok = _metric_signature(rerun) == signatures["cohort"]
        point.update(_max_rss_kb())
        points.append(point)
    out["points"] = points
    out["same_seed_determinism_ok"] = determinism_ok
    if mega:
        out["mega_points"] = [
            _mega_point(base, num_clients, transactions)
            for num_clients in mega
        ]
    if include_defaults:
        # the honest counterpoint: Table 1's sparse default layout, where
        # few clients share a slot and coalescing buys much less
        defaults = SimulationConfig(
            protocol="f-matrix",
            num_clients=512,
            num_client_transactions=transactions,
            seed=seed,
        )
        point = {"clients": 512}
        for executor in ("process", "cohort"):
            seconds, result = _best_of(
                defaults.replace(client_executor=executor), trials
            )
            point[f"{executor}_seconds"] = round(seconds, 4)
            point[f"{executor}_events"] = result.events
        point["speedup"] = round(
            point["process_seconds"] / point["cohort_seconds"], 2
        )
        point.update(_max_rss_kb())
        out["table1_defaults"] = point
    return out


# ----------------------------------------------------------------------
# assembly, comparison, CLI
# ----------------------------------------------------------------------

def run_bench(
    *,
    label: str,
    smoke: bool = False,
    transactions: int = 500,
    sweep_transactions: int = 300,
    workers: int = 0,
    seed: int = 42,
    sections: Sequence[str] = ("simulations", "micro", "sweeps"),
) -> Dict[str, Any]:
    """Execute the selected sections and return one run document."""
    if smoke:
        transactions = min(transactions, 30)
        sweep_transactions = min(sweep_transactions, 10)
    run: Dict[str, Any] = {
        "label": label,
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "params": {
            "transactions": transactions,
            "sweep_transactions": sweep_transactions,
            "workers": workers,
            "seed": seed,
        },
    }
    if "simulations" in sections:
        run["simulations"] = bench_simulations(
            transactions=transactions, seed=seed
        )
    if "micro" in sections:
        if smoke:
            run["micro"] = bench_micro(
                num_objects=60,
                commits=300,
                cycles=200,
                validate_txns=10,
                validate_txn_length=16,
            )
        else:
            run["micro"] = bench_micro()
    if "sweeps" in sections:
        names = ("fig2",) if smoke else SWEEP_NAMES
        run["sweeps"] = bench_sweeps(
            names=names,
            transactions=sweep_transactions,
            seed=seed,
            workers=workers,
        )
    if "scaling" in sections:
        if smoke:
            # one sharded mega point (16384 clients, 2 shards) rides the
            # smoke run so CI gets a metric-identity verdict per commit
            run["scaling"] = bench_scaling(
                clients=(8, 64),
                transactions=2,
                seed=seed,
                trials=1,
                include_defaults=False,
                mega=(16_384,),
            )
        else:
            run["scaling"] = bench_scaling(seed=seed, mega=MEGA_CLIENT_COUNTS)
    return run


def _index_by_name(rows: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {str(row["name"]): row for row in rows}


def compare_runs(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-workload speedups of ``current`` over ``baseline`` plus a
    same-seed determinism verdict (metrics must be bit-identical)."""
    comparison: Dict[str, Any] = {
        "baseline": baseline["label"],
        "current": current["label"],
    }
    determinism_ok = True
    for section in ("simulations", "micro"):
        if section not in baseline or section not in current:
            continue
        speedups: Dict[str, float] = {}
        base_rows = _index_by_name(baseline[section])
        for name, row in _index_by_name(current[section]).items():
            base = base_rows.get(name)
            if base is None or not row["seconds"]:
                continue
            speedups[name] = round(base["seconds"] / row["seconds"], 2)
            if section == "simulations":
                determinism_ok = determinism_ok and all(
                    base[key] == row[key]
                    for key in ("response_mean", "restart_mean", "events")
                )
            elif "checksum" in base and "checksum" in row:
                determinism_ok = determinism_ok and (
                    base["checksum"] == row["checksum"]
                )
        comparison[f"{section}_speedup"] = speedups
    if "sweeps" in baseline and "sweeps" in current:
        base_seq = baseline["sweeps"].get("sequential_seconds")
        cur = current["sweeps"]
        if base_seq:
            comparison["sweeps_sequential_speedup"] = round(
                base_seq / cur["sequential_seconds"], 2
            )
            if cur.get("parallel_seconds"):
                comparison["sweeps_parallel_speedup"] = round(
                    base_seq / cur["parallel_seconds"], 2
                )
    comparison["determinism_ok"] = determinism_ok
    return comparison


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the canonical workloads; write BENCH JSON.",
    )
    parser.add_argument(
        "--label",
        default="run",
        help="name of this run inside the JSON document",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads: CI crash-detection, not measurement",
    )
    parser.add_argument("--transactions", type=int, default=500)
    parser.add_argument(
        "--sweep-transactions",
        type=int,
        default=300,
        help="client transactions per sweep grid point",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="parallel sweep workers (0/1 skips the parallel timing)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--sections",
        default="simulations,micro,sweeps",
        help=f"comma-separated subset of: {','.join(SECTIONS)}",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append to --output's runs instead of overwriting",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_fastpath.json"),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-bench``."""
    args = build_parser().parse_args(argv)
    sections = tuple(s for s in args.sections.split(",") if s)
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        build_parser().error(f"unknown section(s) {unknown}")
    run = run_bench(
        label=args.label,
        smoke=args.smoke,
        transactions=args.transactions,
        sweep_transactions=args.sweep_transactions,
        workers=args.workers,
        seed=args.seed,
        sections=sections,
    )
    runs: List[Dict[str, Any]] = []
    if args.append and args.output.exists():
        runs = json.loads(args.output.read_text()).get("runs", [])
    runs.append(run)
    document: Dict[str, Any] = {
        "schema": 1,
        "benchmark": "scaling" if sections == ("scaling",) else "fastpath",
        "runs": runs,
    }
    if len(runs) >= 2:
        document["comparison"] = compare_runs(runs[0], runs[-1])
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output} ({len(runs)} run(s))")
    for record in run.get("simulations", []):
        print(
            f"  sim {record['name']:<16} {record['seconds']:>8.3f}s "
            f"({record['events_per_second']:,.0f} events/s)"
        )
    for record in run.get("micro", []):
        print(
            f"  micro {record['name']:<24} {record['per_op_us']:>8.2f} us/op"
        )
    sweeps = run.get("sweeps")
    if sweeps:
        line = f"  sweeps sequential {sweeps['sequential_seconds']:.1f}s"
        if "parallel_seconds" in sweeps:
            line += (
                f"  parallel({sweeps['workers']}) "
                f"{sweeps['parallel_seconds']:.1f}s "
                f"(speedup {sweeps['parallel_speedup']:.2f}x)"
            )
        print(line)
    scaling = run.get("scaling")
    if scaling:
        for point in scaling["points"]:
            print(
                f"  scaling {point['clients']:>5} clients  "
                f"process {point['process_seconds']:>7.3f}s "
                f"({point['process_events']:>8,} ev)  "
                f"cohort {point['cohort_seconds']:>7.3f}s "
                f"({point['cohort_events']:>8,} ev)  "
                f"speedup {point['speedup']:.2f}x  "
                f"identical={point['metrics_identical']}"
            )
        for point in scaling.get("mega_points", []):
            print(
                f"  scaling {point['clients']:>9,} clients  "
                f"cohort×{point['shards']} "
                f"{point['cohort_sharded_seconds']:>8.3f}s "
                f"({point['clients_per_second']:>9,.0f} clients/s)  "
                f"cohort×1 {point['cohort_seconds']:>8.3f}s  "
                f"identical={point['metrics_identical']}"
            )
        if "table1_defaults" in scaling:
            point = scaling["table1_defaults"]
            print(
                f"  scaling table1-defaults ({point['clients']} clients)  "
                f"speedup {point['speedup']:.2f}x"
            )
        print(
            "  scaling same-seed determinism: "
            + ("OK" if scaling["same_seed_determinism_ok"] else "FAILED")
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
