"""One benchmark process: set up, then measure one workload.

``run.py`` starts this script and times it from spawn to its ``ready``
line (interpreter start, imports and a warm-up run of the workload's
shape: ``setup_s``).  Then, for ``--seconds``, it runs timed
repetitions and prints one JSON object as its last line.

Untraced (``--trace 0``): end-to-end figures — committed client
transactions per host second (median over repetitions), peak RSS of
this process plus its pool children, and the repetition verdicts.

Traced (``--trace 1``): three phases share the time — plain
repetitions (the base wall), repetitions under the span ledger
(per-layer calls and self times) and repetitions with the simulator's
own ``tracing=True`` (span counts).  Layer figures are per repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import workloads
from ledger import Ledger, layer_targets

#: repetitions every measurement takes, however long they run
MIN_REPETITIONS = 3


def _warm_up(workload: workloads.Workload, seed: int) -> None:
    """A tiny run of the workload's shape: pays the lazy imports (the
    scipy t-quantile in the summaries, the analysis modules) before the
    first timed repetition."""
    configs = workload.configs(seed, "tiny")
    workloads.run_repetition(configs, time.perf_counter)


class Verdicts:
    """Checks each repetition's signature; counts attempts and failures."""

    def __init__(self, name: str, seed: int, configs: Tuple[Any, ...]) -> None:
        self.configs = configs
        self.reference = workloads.pinned_reference(name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, rep: Optional[workloads.Repetition], error: str = "") -> bool:
        self.attempted += 1
        problems = [error] if rep is None else []
        if rep is not None:
            sig = workloads.signature(rep)
            problems = workloads.invariant_problems(self.configs, sig)
            problems += workloads.check(sig, self.reference)
            if self.reference is None and not problems:
                # the seed's first clean repetition is every later one's reference
                self.reference = sig
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return not problems


def _repeat(
    configs: Tuple[Any, ...],
    verdicts: Verdicts,
    seconds: float,
    on_rep: Callable[[workloads.Repetition, float], None],
) -> None:
    """Timed repetitions until ``seconds`` have passed (at least
    :data:`MIN_REPETITIONS`); ``on_rep`` gets each passing one."""
    clock = time.perf_counter
    begin = clock()
    runs = 0
    while runs < MIN_REPETITIONS or clock() - begin < seconds:
        runs += 1
        gc.collect()
        start = clock()
        try:
            rep = workloads.run_repetition(configs, clock)
        except Exception as exc:  # a raising repetition is a failed one
            verdicts.record(None, f"{type(exc).__name__}: {exc}")
            continue
        wall = clock() - start
        if verdicts.record(rep):
            on_rep(rep, wall)


def _peak_rss_mb() -> float:
    """Max RSS of this process plus its largest waited-for child (the
    shard pool workers), in MiB; Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    workload = workloads.WORKLOADS[name]
    configs = workload.configs(seed)
    verdicts = Verdicts(name, seed, configs)
    rates: List[float] = []

    def on_rep(rep: workloads.Repetition, wall: float) -> None:
        rates.append(workloads.commits(rep) / wall)

    _repeat(configs, verdicts, seconds, on_rep)
    return {
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "problems": verdicts.problems,
        "rates": rates,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _primary_share(config: Any) -> float:
    """The share of a run's clients the primary shard simulates (1 when
    unsharded): the ledger sees only the primary's spans, the merged
    metrics count every shard's reads."""
    from repro.sim.shard import reader_slices

    primary = reader_slices(config)[0]
    return _ratio(
        primary.updaters + primary.reader_hi - primary.reader_lo, config.num_clients
    )


def measure_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Per-layer metrics: base walls, ledger spans, simulator span counts."""
    workload = workloads.WORKLOADS[name]
    configs = workload.configs(seed)
    verdicts = Verdicts(name, seed, configs)
    phase = seconds / 3.0

    base_walls: List[float] = []
    protocol_walls: Dict[str, List[float]] = {}

    def on_base(rep: workloads.Repetition, wall: float) -> None:
        base_walls.append(wall)
        for protocol, seconds_ in rep.walls.items():
            protocol_walls.setdefault(protocol, []).append(seconds_)

    _repeat(configs, verdicts, phase, on_base)

    ledger = Ledger()
    traced_walls: List[float] = []
    shard_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}

    def on_traced(rep: workloads.Repetition, wall: float) -> None:
        traced_walls.append(wall)
        for result in rep.results:
            for key, value in (result.profile or {}).items():
                shard_s[key] = shard_s.get(key, 0.0) + value
            m = result.metrics
            reads = m.reads_delivered + m.reads_rejected
            for key, value in (
                ("events", result.events),
                ("delivered", m.reads_delivered),
                ("rejected", m.reads_rejected),
                ("primary_reads", reads * _primary_share(result.config)),
                ("commits", m.commit_count),
                ("aborts", sum(m.abort_causes.values())),
                ("cache_hits", m.cache_hits),
            ):
                counts[key] = counts.get(key, 0) + value
        counts["history_txns"] = counts.get("history_txns", 0) + sum(rep.history_txns)

    with ledger.installed(layer_targets()):
        _repeat(configs, verdicts, phase, on_traced)

    obs_walls: List[float] = []
    spans: List[int] = []
    dropped: List[int] = []
    traced_configs = tuple(c.replace(tracing=True) for c in configs)

    def on_obs(rep: workloads.Repetition, wall: float) -> None:
        obs_walls.append(wall)
        spans.append(sum(len(r.spans or ()) for r in rep.results))
        dropped.append(sum(r.spans_dropped for r in rep.results))

    obs_verdicts = Verdicts(name, seed, traced_configs)
    obs_verdicts.reference = verdicts.reference
    _repeat(traced_configs, obs_verdicts, phase, on_obs)

    reps = max(1, len(traced_walls))
    per_rep = {key: value / reps for key, value in counts.items()}
    calls = {key: value / reps for key, value in ledger.calls.items()}
    self_s = {key: value / reps for key, value in ledger.self_s.items()}
    shard = {key: value / reps for key, value in shard_s.items()}

    def span_s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    # the pool's setup and wait phases hold no wrapped call in the parent
    shard_own = shard.get("setup", 0.0) + shard.get("shards", 0.0)
    traced_wall = sum(traced_walls) / reps
    reads = per_rep.get("delivered", 0) + per_rep.get("rejected", 0)
    base = statistics.median(base_walls) if base_walls else 0.0
    metrics: Dict[str, Tuple[float, str]] = {
        "sim.events": (per_rep.get("events", 0), "count"),
        "sim.self_s": (span_s("sim.run"), "s"),
        "sim.build.self_s": (span_s("sim.build"), "s"),
        "sim.us_per_read": (
            _ratio(span_s("sim.run"), per_rep.get("primary_reads", 0)) * 1e6, "us",
        ),
        "shard.setup_s": (shard.get("setup", 0.0), "s"),
        "shard.primary_s": (shard.get("primary", 0.0), "s"),
        "shard.wait_s": (shard.get("shards", 0.0), "s"),
        "shard.merge_s": (shard.get("merge", 0.0), "s"),
        "shard.drive_s": (shard.get("drive", 0.0), "s"),
        "server.commit.calls": (calls.get("server.commit", 0), "count"),
        "server.commit.self_s": (span_s("server.commit"), "s"),
        "server.begin_cycle.calls": (calls.get("server.begin_cycle", 0), "count"),
        "server.begin_cycle.self_s": (span_s("server.begin_cycle"), "s"),
        "server.workload.self_s": (span_s("server.workload"), "s"),
        "server.submit_update.calls": (calls.get("server.submit_update", 0), "count"),
        "server.submit_update.self_s": (span_s("server.submit_update"), "s"),
        "core.apply_commit.calls": (calls.get("core.apply_commit", 0), "count"),
        "core.apply_commit.self_s": (span_s("core.apply_commit"), "s"),
        "validators.read.calls": (calls.get("validators.read", 0), "count"),
        "validators.read.self_s": (span_s("validators.read"), "s"),
        "validators.batch.calls": (calls.get("validators.batch", 0), "count"),
        "validators.batch.self_s": (span_s("validators.batch"), "s"),
        "validators.accept_ratio": (
            _ratio(per_rep.get("delivered", 0), reads), "ratio",
        ),
        "client.attempts_per_commit": (
            _ratio(
                per_rep.get("commits", 0) + per_rep.get("aborts", 0),
                per_rep.get("commits", 0),
            ),
            "ratio",
        ),
        "cache.lookup.calls": (calls.get("cache.lookup", 0), "count"),
        "cache.lookup.self_s": (span_s("cache.lookup"), "s"),
        "cache.insert.self_s": (span_s("cache.insert"), "s"),
        "cache.hit_rate": (
            _ratio(per_rep.get("cache_hits", 0), calls.get("cache.lookup", 0)),
            "ratio",
        ),
        "faults.self_s": (
            span_s("faults.slot_heard", "faults.doze_wake", "faults.uplink_lost"),
            "s",
        ),
        "faults.slot_heard.calls": (calls.get("faults.slot_heard", 0), "count"),
        "metrics.self_s": (
            span_s(
                "metrics.record_commit",
                "metrics.record_abort",
                "metrics.merge_from",
                "metrics.summary",
            ),
            "s",
        ),
        "analysis.audit.self_s": (span_s("analysis.audit"), "s"),
        "analysis.history.self_s": (span_s("analysis.history"), "s"),
        "analysis.certify.self_s": (span_s("analysis.certify"), "s"),
        "analysis.history_txns": (per_rep.get("history_txns", 0), "count"),
        "obs.trace_overhead": (
            _ratio(statistics.median(obs_walls), base) if obs_walls else 0.0,
            "ratio",
        ),
        "obs.spans": (statistics.median(spans) if spans else 0, "count"),
        "obs.spans_dropped": (statistics.median(dropped) if dropped else 0, "count"),
        "bench.trace_overhead": (
            _ratio(statistics.median(traced_walls), base) if traced_walls else 0.0,
            "ratio",
        ),
        "bench.unattributed_share": (
            _ratio(traced_wall - ledger.covered_s / reps - shard_own, traced_wall),
            "ratio",
        ),
    }
    # per-protocol walls mean the table1 runs; elsewhere they would also
    # hold audits and certification, so they read 0 there
    for protocol in workloads.TABLE1_PROTOCOLS:
        walls = protocol_walls.get(protocol) if name == "table1" else None
        metrics[f"run_s.{protocol}"] = (statistics.median(walls) if walls else 0.0, "s")
    return {
        "attempted": verdicts.attempted + obs_verdicts.attempted,
        "failed": verdicts.failed + obs_verdicts.failed,
        "problems": verdicts.problems + obs_verdicts.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def provenance(seed: int, configs: Tuple[Any, ...]) -> Dict[str, Any]:
    """Where and what ran: CPUs, effective shard workers, versions, seed."""
    import numpy

    cpus = os.cpu_count() or 1
    shards = max(c.shards for c in configs)
    return {
        "cpu_count": cpus,
        "shards": shards,
        # run_sharded's default pool: the parent runs the primary shard
        "effective_workers": min(shards - 1, max(1, cpus - 1)) if shards > 1 else 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="exit after the ready line"
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    _warm_up(workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = measure_traced(args.workload, args.seed, args.seconds)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    out["provenance"] = provenance(args.seed, workload.configs(args.seed))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
