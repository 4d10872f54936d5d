"""Simulation assembly: wire config → server, layout, clients; run; report.

:func:`run_simulation` is the one-call entry point used by the
experiments, benchmarks and examples::

    from repro.sim import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(protocol="f-matrix"))
    print(result.response_time.mean, result.restart_ratio.mean)

One simulator instance hosts: the cycle process, the server completion
process, and ``num_clients`` client processes (the paper simulates one
client — protocol decisions at distinct clients are independent, so a
single client suffices for response-time statistics; more are supported).

Sharded runs (``config.shards > 1``; :mod:`repro.sim.shard`) give each
shard a :class:`ShardSlice`: every shard deterministically *recomputes*
the authoritative timeline — the cycle, server, crash and update-client
processes — from the shared seeds, and simulates only its own contiguous
range of read-only clients on top of it.  Read-only clients never touch
shared state, so the timeline each shard derives is bit-identical to the
unsharded run's; the only data shards exchange is their merged
:class:`MetricsCollector`.  Exactly one shard (the primary) records the
infrastructure's and the update clients' metrics; the others route those
"ghost" measurements into a shadow collector that is dropped on the
floor, so the merge counts everything exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from ..analysis.diagnostics import AuditReport
    from ..obs.registry import TelemetryRegistry

from ..broadcast.layout import BroadcastLayout
from ..client.cache import QuasiCache
from ..core.validators import ReadValidator, make_validator
from ..obs.profiler import PhaseProfiler
from ..obs.tracer import NULL_TRACER, Span, Tracer, canonical_spans
from ..server.server import BroadcastServer
from ..server.workload import ClientWorkload, ServerWorkload
from .cohort import CohortClient, CohortExecutor
from .config import SimulationConfig
from .engine import Simulator
from .faults import FaultRuntime, crash_process
from .metrics import MetricsCollector, SummaryStat
from .processes import SharedState, client_process, cycle_process, server_process
from .trace import TraceRecorder

__all__ = [
    "SimulationResult",
    "ShardSlice",
    "BroadcastSimulation",
    "run_simulation",
]


@dataclass(frozen=True)
class ShardSlice:
    """Which clients one sharded simulation simulates and measures.

    Update-capable clients ``[0, updaters)`` are part of the shared
    authoritative timeline (they mutate the server over the uplink), so
    *every* shard simulates them; only the primary shard records their
    metrics.  Read-only clients ``[reader_lo, reader_hi)`` exist — and
    are measured — on exactly one shard.
    """

    #: update-capable clients, simulated on every shard
    updaters: int
    #: this shard's contiguous read-only client range (half-open)
    reader_lo: int
    reader_hi: int
    #: does this shard record the timeline's (server/crash/updater) metrics?
    primary: bool

    @property
    def num_readers(self) -> int:
        return self.reader_hi - self.reader_lo


def _full_slice(config: SimulationConfig) -> ShardSlice:
    updaters = config.update_capable_clients()
    return ShardSlice(
        updaters=updaters,
        reader_lo=updaters,
        reader_hi=config.num_clients,
        primary=True,
    )


@dataclass
class SimulationResult:
    """Summary of one run (plus handles for deeper inspection)."""

    config: SimulationConfig
    response_time: SummaryStat
    restart_ratio: SummaryStat
    metrics: MetricsCollector
    server: BroadcastServer
    trace: Optional[TraceRecorder]
    sim_time: float
    events: int
    #: invariant-audit report, populated when the config sets ``audit=True``
    audit_report: Optional["AuditReport"] = None
    #: canonical merged span stream (sorted, truncated at ``sim_time``)
    #: when the config enables tracing; ``None`` otherwise
    spans: Optional[List[Span]] = None
    #: raw per-shard span streams in emission order (index 0 = the
    #: primary/timeline shard) — what the Chrome-trace exporter lays out
    #: as process lanes
    shard_spans: Optional[List[List[Span]]] = None
    #: spans overwritten by ring-buffer wraparound, summed over shards
    spans_dropped: int = 0
    #: wall-clock seconds per harness phase (outside the deterministic
    #: core); populated by the orchestrating entry points
    profile: Optional[Dict[str, float]] = None

    @property
    def protocol(self) -> str:
        return self.config.protocol

    def telemetry(self) -> "TelemetryRegistry":
        """This run's counters/gauges/histograms as a telemetry registry."""
        from ..obs.registry import registry_from_result

        return registry_from_result(self)


class BroadcastSimulation:
    """Builds and runs one simulation described by a config."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        collect_trace: bool = False,
        client_workloads: Optional[List] = None,
        slice_: Optional[ShardSlice] = None,
    ):
        """``client_workloads`` optionally overrides the per-client
        generators — any objects with ``next_transaction()`` (e.g.
        :class:`repro.server.traces.TraceWorkload` for replayable
        workloads); one per client (indexed by global client id).

        ``slice_`` restricts this simulation to one shard's clients
        (:mod:`repro.sim.shard` builds these); ``None`` simulates and
        measures everyone.
        """
        self.config = config
        self.slice = _full_slice(config) if slice_ is None else slice_
        self.layout: BroadcastLayout = config.layout()
        self.server = BroadcastServer(
            config.num_objects,
            config.protocol,
            arithmetic=config.arithmetic(),
            partition=config.partition(),
        )
        self.sim = Simulator()
        self.metrics = MetricsCollector(keep_samples=config.keep_samples)
        #: span sink for everything this shard measures; the no-op
        #: singleton keeps untraced runs allocation-free
        self.tracer: Tracer = (
            Tracer(config.trace_buffer) if config.tracing else NULL_TRACER
        )
        #: where the shared timeline's metrics (server process, crash
        #: recovery, ghost update clients) land: the measured collector
        #: on the primary shard, a discarded shadow elsewhere
        self._timeline_metrics: MetricsCollector = (
            self.metrics
            if self.slice.primary
            else MetricsCollector(keep_samples=False)
        )
        if (collect_trace or config.audit) and slice_ is not None:
            raise ValueError("trace/audit runs cannot be sliced into shards")
        self.trace = TraceRecorder() if (collect_trace or config.audit) else None
        if self.trace is not None and config.audit:
            self.trace.record_cycles = True
        local_clients = self.slice.updaters + self.slice.num_readers
        self.state = SharedState(num_clients=local_clients)
        # timeline spans (cycle/server/crash) are primary-only, exactly
        # like timeline metrics: ghost timelines recompute the same
        # history and would double-emit
        self.state.tracer = self.tracer if self.slice.primary else NULL_TRACER
        # a no-op plan is indistinguishable from no plan: no runtime, no
        # crash process, bit-identical event sequences
        if config.faults is not None and not config.faults.is_noop:
            self.state.faults = FaultRuntime(
                config.faults,
                config.arithmetic(),
                self._timeline_metrics,
                seed=config.seed,
            )

        base_seed = config.seed
        self._server_workload = ServerWorkload(
            config.num_objects,
            length=config.server_txn_length,
            read_probability=config.server_read_probability,
            seed=base_seed * 1_000_003 + 1,
        )
        self._server_rng = random.Random(base_seed * 1_000_003 + 2)
        if client_workloads is not None and len(client_workloads) != config.num_clients:
            raise ValueError(
                f"need {config.num_clients} client workloads, "
                f"got {len(client_workloads)}"
            )
        self._workload_overrides = (
            list(client_workloads) if client_workloads is not None else None
        )

    # -- per-client stream factories -----------------------------------
    # Built on demand (never a list over the whole population): client
    # ``k``'s workload and RNG are pure functions of the config seed and
    # ``k``, so any shard reconstructs exactly the streams the unsharded
    # run uses.
    def workload_for(self, k: int) -> ClientWorkload:
        if self._workload_overrides is not None:
            return self._workload_overrides[k]
        config = self.config
        return ClientWorkload(
            config.num_objects,
            length=config.client_txn_length,
            seed=config.seed * 1_000_003 + 100 + k,
            access_skew=config.client_access_skew,
            hot_fraction=config.hot_fraction,
        )

    def rng_for(self, k: int) -> random.Random:
        return random.Random(self.config.seed * 1_000_003 + 200 + k)

    def cache_for(self, _k: int) -> Optional[QuasiCache]:
        config = self.config
        if config.cache_currency_bound is None:
            return None
        return QuasiCache(config.cache_currency_bound, capacity=config.cache_capacity)

    def validator_for(self, _k: int) -> ReadValidator:
        config = self.config
        return make_validator(
            config.protocol,
            arithmetic=config.arithmetic(),
            partition=config.partition(),
        )

    def _local_client_ids(self) -> List[int]:
        sl = self.slice
        return list(range(sl.updaters)) + list(range(sl.reader_lo, sl.reader_hi))

    # ------------------------------------------------------------------
    def spawn_timeline(self) -> None:
        """Spawn the authoritative processes: cycle and server."""
        sim = self.sim
        sim.spawn(
            cycle_process(
                sim,
                self.server,
                self.layout,
                self.state,
                self.trace,
                metrics=self._timeline_metrics,
            ),
            name="cycle",
        )
        sim.spawn(
            server_process(
                sim,
                self.config,
                self.server,
                self._server_workload,
                self.layout,
                self._server_rng,
                self._timeline_metrics,
                state=self.state,
            ),
            name="server",
        )

    def spawn_crash_process(self) -> None:
        """Spawn crash recovery (after the clients: spawn order is part
        of the determinism contract for same-instant tie-breaking)."""
        if self.state.faults is not None and self.state.faults.plan.crashes:
            self.sim.spawn(
                crash_process(
                    self.sim,
                    self.config,
                    self.server,
                    self.layout,
                    self.state,
                    self._timeline_metrics,
                    trace=self.trace,
                ),
                name="fault-crash",
            )

    def execute(self, max_events: Optional[int] = None) -> Tuple[float, int]:
        """Run the simulation; returns ``(sim_time, events)``.

        Metrics land in ``self.metrics``; :meth:`run` wraps this with the
        summary statistics.  Shard workers call this directly — a
        secondary shard's partial sample set isn't summarisable on its
        own.
        """
        config = self.config
        sim = self.sim
        sl = self.slice
        self.spawn_timeline()
        # ghost updaters (non-primary shards) record into the shadow
        # collector; everyone this shard measures records into the real one
        ghosts: List[CohortClient] = []
        measured: List[CohortClient] = []
        for k in self._local_client_ids():
            cache = self.cache_for(k)
            validator = self.validator_for(k)
            is_ghost = not sl.primary and k < sl.updaters
            if config.client_executor == "cohort":
                group = ghosts if is_ghost else measured
                group.append(
                    CohortClient(k, self.workload_for(k), validator, self.rng_for(k), cache)
                )
                continue
            sim.spawn(
                client_process(
                    sim,
                    config,
                    k,
                    self.workload_for(k),
                    validator,
                    self.layout,
                    self.state,
                    self.metrics,
                    self.rng_for(k),
                    server=self.server,
                    trace=self.trace,
                    cache=cache,
                    tracer=self.tracer,
                ),
                name=f"client-{k}",
            )
        self.spawn_crash_process()
        for group, collector, tracer in (
            (ghosts, self._timeline_metrics, NULL_TRACER),
            (measured, self.metrics, self.tracer),
        ):
            if group:
                CohortExecutor(
                    sim=sim,
                    config=config,
                    layout=self.layout,
                    state=self.state,
                    server=self.server,
                    metrics=collector,
                    clients=group,
                    trace=self.trace,
                    tracer=tracer,
                ).start()

        sim.run(stop_when=lambda: self.state.all_clients_done, max_events=max_events)
        return sim.now, sim.events_processed

    def run(self, *, max_events: Optional[int] = None) -> SimulationResult:
        config = self.config
        sim_time, events = self.execute(max_events)

        spans: Optional[List[Span]] = None
        shard_spans: Optional[List[List[Span]]] = None
        spans_dropped = 0
        if config.tracing:
            shard_spans = [self.tracer.export()]
            spans = canonical_spans(shard_spans, sim_time)
            spans_dropped = self.tracer.dropped
        result = SimulationResult(
            config=config,
            response_time=self.metrics.response_time(config.measure_fraction),
            restart_ratio=self.metrics.restart_ratio(config.measure_fraction),
            metrics=self.metrics,
            server=self.server,
            trace=self.trace,
            sim_time=sim_time,
            events=events,
            spans=spans,
            shard_spans=shard_spans,
            spans_dropped=spans_dropped,
        )
        if config.audit:
            # Imported here (not at module top) so repro.sim never depends
            # on repro.analysis unless auditing is actually requested —
            # analysis imports sim types for annotations only.
            from ..analysis import audit_simulation

            result.audit_report = audit_simulation(result)
        return result


def run_simulation(
    config: SimulationConfig,
    *,
    collect_trace: bool = False,
    max_events: Optional[int] = None,
) -> SimulationResult:
    """Build and run one simulation (sharded when ``config.shards > 1``)."""
    if config.shards > 1:
        from .shard import run_sharded

        return run_sharded(config, collect_trace=collect_trace, max_events=max_events)
    profiler = PhaseProfiler()
    simulation = BroadcastSimulation(config, collect_trace=collect_trace)
    with profiler.phase("execute"):
        result = simulation.run(max_events=max_events)
    result.profile = profiler.as_dict()
    return result
