"""Sharded simulation: partition the read-only population over processes.

One broadcast serves every client, but fault-free read-only clients are
pure *observers*: nothing they do reaches the server, the cycle images,
or each other.  That makes the population embarrassingly parallel —
provided every shard sees the same broadcast.  Each shard therefore
deterministically *recomputes* the authoritative timeline from the
config's seeds: the cycle process, the server process, the crash
schedule, and every update-capable client (whose uplink submissions
mutate the server) run in *every* shard, bit-identically.  k shards pay
k× the timeline cost; docs/PERFORMANCE.md §5 records why the one
alternative tried — record the timeline once and replay it from shared
memory — was removed.

The only inter-process traffic is the result: each worker returns its
:class:`~repro.sim.metrics.MetricsCollector`, and the parent folds them
together with :meth:`~repro.sim.metrics.MetricsCollector.merge_from` in
shard order.
Double counting is prevented by the primary/ghost split
(:class:`~repro.sim.simulation.ShardSlice`): exactly one shard — the
primary — records the timeline's metrics; the others route them into a
discarded shadow collector.  Summary statistics sort the merged samples
by a layout-independent key, so the reported numbers are bit-identical
to an unsharded run's — the property tests assert this across shard
counts and executors.

A worker that dies raises :class:`ShardExecutionError` in the parent,
naming the shard and its reader range; outstanding futures are
cancelled rather than left running against a doomed merge.

``workers=0`` runs every shard sequentially in-process: same results,
no pool — the mode tests use to exercise slicing without fork overhead.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from ..obs.profiler import PhaseProfiler
from ..obs.tracer import Span, canonical_spans
from .config import SimulationConfig
from .metrics import MetricsCollector
from .simulation import BroadcastSimulation, ShardSlice, SimulationResult

__all__ = ["reader_slices", "run_sharded", "ShardExecutionError"]


class ShardExecutionError(RuntimeError):
    """A shard worker failed; identifies which slice of the population.

    Raised by the parent with the original exception chained (``from``),
    after cancelling the outstanding shard futures — a sharded run is
    all-or-nothing, so there is no point finishing the survivors.
    """

    def __init__(self, shard_index: int, slice_: ShardSlice, cause: BaseException):
        super().__init__(
            f"shard {shard_index} (readers [{slice_.reader_lo}, "
            f"{slice_.reader_hi})) failed: {cause!r}"
        )
        self.shard_index = shard_index
        self.reader_lo = slice_.reader_lo
        self.reader_hi = slice_.reader_hi


def reader_slices(config: SimulationConfig) -> List[ShardSlice]:
    """Partition the read-only population into ``config.shards`` slices.

    Contiguous, near-even ranges (the first ``readers % shards`` slices
    get the extra client); every slice also carries the update-capable
    prefix ``[0, updaters)``, which all shards must simulate.  The shard
    count is clamped to the number of read-only clients — an empty shard
    would be pure overhead.
    """
    updaters = config.update_capable_clients()
    readers = config.num_clients - updaters
    shards = min(config.shards, readers)
    if shards <= 1:
        return [
            ShardSlice(
                updaters=updaters,
                reader_lo=updaters,
                reader_hi=config.num_clients,
                primary=True,
            )
        ]
    base, extra = divmod(readers, shards)
    slices: List[ShardSlice] = []
    lo = updaters
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(
            ShardSlice(
                updaters=updaters,
                reader_lo=lo,
                reader_hi=lo + size,
                primary=index == 0,
            )
        )
        lo += size
    return slices


def _run_shard(
    job: Tuple[SimulationConfig, ShardSlice, Optional[int]]
) -> Tuple[MetricsCollector, float, int, List[Span], int]:
    """Worker entry point: one shard; collector + run stats +
    this shard's raw span stream (empty when tracing is off).

    Module-level so the process pool can pickle it; also the inline path
    for ``workers=0``.
    """
    config, slice_, max_events = job
    simulation = BroadcastSimulation(config, slice_=slice_)
    sim_time, events = simulation.execute(max_events)
    return (
        simulation.metrics,
        sim_time,
        events,
        simulation.tracer.export(),
        simulation.tracer.dropped,
    )


def _collect(
    futures: Sequence["Future"], slices: Sequence[ShardSlice], first_index: int
) -> List[Tuple]:
    """Gather shard futures in order; wrap failures, cancel the rest."""
    outcomes: List[Tuple] = []
    for offset, future in enumerate(futures):
        try:
            outcomes.append(future.result())
        except Exception as exc:
            for pending in futures[offset + 1 :]:
                pending.cancel()
            raise ShardExecutionError(
                first_index + offset, slices[offset], exc
            ) from exc
    return outcomes


def run_sharded(
    config: SimulationConfig,
    *,
    workers: Optional[int] = None,
    collect_trace: bool = False,
    max_events: Optional[int] = None,
) -> SimulationResult:
    """Run ``config`` as ``config.shards`` cooperating simulations.

    ``workers=None`` sizes the pool to ``min(shards - 1, cpus - 1)``
    (the parent itself runs the primary shard, so one core is spoken
    for); ``workers=0`` forces sequential in-process execution.
    """
    if collect_trace:
        raise ValueError(
            "sharded runs record no trace (each shard sees only its own "
            "clients); use shards=1 for trace/audit runs"
        )
    profiler = PhaseProfiler()
    slices = reader_slices(config)
    if len(slices) == 1:
        with profiler.phase("execute"):
            result = BroadcastSimulation(config, slice_=slices[0]).run(
                max_events=max_events
            )
        result.profile = profiler.as_dict()
        return result
    rest = slices[1:]
    if workers is None:
        workers = min(len(rest), max(1, (os.cpu_count() or 1) - 1))
    if workers <= 0:
        outcomes = []
        with profiler.phase("shards"):
            for index, sl in enumerate(rest):
                try:
                    outcomes.append(_run_shard((config, sl, max_events)))
                except Exception as exc:
                    raise ShardExecutionError(1 + index, sl, exc) from exc
        with profiler.phase("primary"):
            primary = BroadcastSimulation(config, slice_=slices[0])
            sim_time, events = primary.execute(max_events)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            with profiler.phase("setup"):
                futures = [
                    pool.submit(_run_shard, (config, sl, max_events)) for sl in rest
                ]
            # the parent is shard 0 — it computes the primary (metric-
            # recording) timeline while the pool handles the rest
            with profiler.phase("primary"):
                primary = BroadcastSimulation(config, slice_=slices[0])
                sim_time, events = primary.execute(max_events)
            with profiler.phase("shards"):
                outcomes = _collect(futures, rest, 1)

    merged = primary.metrics
    with profiler.phase("merge"):
        for shard_metrics, shard_time, shard_events, _spans, _dropped in outcomes:
            merged.merge_from(shard_metrics)
            if shard_time > sim_time:
                sim_time = shard_time
            events += shard_events

    # an unsharded run's timeline (server completions, crash recovery)
    # keeps going until the globally-last client finishes; the primary —
    # the one shard whose timeline metrics are recorded — must cover the
    # same span, so drive it forward to the merged stop time
    with profiler.phase("drive"):
        if sim_time > primary.sim.now:
            primary.sim.run(until=sim_time, max_events=max_events)

    spans = None
    shard_spans = None
    spans_dropped = 0
    if config.tracing:
        # the primary's stream is exported only now: driving it to the
        # merged stop emits the tail of its timeline spans
        shard_spans = [primary.tracer.export()] + [o[3] for o in outcomes]
        spans = canonical_spans(shard_spans, sim_time)
        spans_dropped = primary.tracer.dropped + sum(o[4] for o in outcomes)

    return SimulationResult(
        config=config,
        response_time=merged.response_time(config.measure_fraction),
        restart_ratio=merged.restart_ratio(config.measure_fraction),
        metrics=merged,
        server=primary.server,
        trace=None,
        sim_time=sim_time,
        events=events,
        spans=spans,
        shard_spans=shard_spans,
        spans_dropped=spans_dropped,
        profile=profiler.as_dict(),
    )

