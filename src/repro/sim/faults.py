"""Fault injection: client doze intervals, uplink loss, server crashes.

The paper's protocols assume clients hear every cycle's control
information and that no transaction spans more than ``max_cycles``
cycles (Sec. 3.2.1) — but broadcast environments exist precisely for
huge, flaky, battery-constrained client populations that doze, lose
slots and rejoin.  This module makes those failure modes first-class,
deterministic simulation inputs:

* :class:`FaultPlan` — a frozen, seedable schedule attached to
  :class:`repro.sim.config.SimulationConfig`: per-client
  :class:`DozeInterval` radio-off windows, :class:`ServerCrash`
  crash+recovery events, and uplink submission loss with
  retry/timeout/backoff for client update transactions;
* :class:`FaultRuntime` — the per-run mutable state the simulation
  processes consult (is the server down? is this client dozing? was
  this slot heard?), charging every missed slot to a cause-attributed
  metric;
* :func:`crash_process` — a simulator process that kills the server at
  each scheduled crash, rebuilds it from the durable state via
  :func:`repro.server.recovery.recover_server`, replays the downtime as
  quiescent cycles, and swaps the rebuilt state into the live server
  object (:meth:`repro.server.server.BroadcastServer.restore_from`).

Everything is derived from the plan and the config seed: two runs with
the same config (including its plan) are bit-identical.  A ``None`` (or
no-op) plan leaves every process on its exact pre-fault event sequence,
so zero-fault runs are bit-identical to runs of a build without this
module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.cycles import CycleArithmetic, ModuloCycles
from ..server.recovery import recover_server
from .engine import Simulator, Timeout, WaitUntil

if TYPE_CHECKING:  # type-only: avoid import cycles with config/processes
    from ..broadcast.layout import BroadcastLayout
    from ..server.server import BroadcastServer
    from .config import SimulationConfig
    from .metrics import MetricsCollector
    from .processes import SharedState
    from .trace import TraceRecorder

__all__ = [
    "DozeInterval",
    "ServerCrash",
    "FaultPlan",
    "FaultRuntime",
    "crash_process",
]

#: what the crash process generator yields
FaultEvents = Generator[Union[Timeout, WaitUntil], None, None]


@dataclass(frozen=True)
class DozeInterval:
    """One client's radio is off during ``[start, start + duration)``.

    Times are bit-units.  Only the *radio* sleeps: local think time and
    cache reads proceed, but every broadcast slot overlapping the
    interval goes unheard and the client re-tunes at the object's next
    appearance — exactly the radio-loss retry path, minus the RNG draw.
    """

    client: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.client < 0:
            raise ValueError("client must be >= 0")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (scenario files, recorded traces)."""
        return {
            "client": self.client,
            "start": self.start,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DozeInterval":
        return cls(
            client=int(payload["client"]),  # type: ignore[arg-type]
            start=float(payload["start"]),  # type: ignore[arg-type]
            duration=float(payload["duration"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ServerCrash:
    """The server loses all volatile state at ``time``.

    For ``downtime`` bit-units the air is dead (no broadcast images, no
    server completions, no uplink verdicts); then the server is rebuilt
    from its durable state — the commit log and the broadcast cycle
    recorded alongside it — and the missed cycles are replayed as
    quiescent cycles.
    """

    time: float
    downtime: float

    def __post_init__(self) -> None:
        if self.time <= 0:
            raise ValueError("crash time must be > 0")
        if self.downtime <= 0:
            raise ValueError("downtime must be > 0")

    @property
    def end(self) -> float:
        return self.time + self.downtime

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (scenario files, recorded traces)."""
        return {"time": self.time, "downtime": self.downtime}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ServerCrash":
        return cls(
            time=float(payload["time"]),  # type: ignore[arg-type]
            downtime=float(payload["downtime"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one simulation run."""

    #: per-client radio-off windows (any order; validated non-overlapping
    #: per client)
    doze: Tuple[DozeInterval, ...] = ()
    #: mid-run server crash + recovery events (validated non-overlapping)
    crashes: Tuple[ServerCrash, ...] = ()
    #: probability an uplink submission is lost in transit
    uplink_loss_probability: float = 0.0
    #: resubmissions before the update transaction gives up and aborts
    uplink_max_retries: int = 3
    #: bit-units a client waits for a verdict before declaring loss
    uplink_timeout: float = 16_384.0
    #: verdict-timeout multiplier per successive retry (>= 1)
    uplink_backoff: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "doze", tuple(self.doze))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        if not 0.0 <= self.uplink_loss_probability < 1.0:
            raise ValueError("uplink_loss_probability must be in [0, 1)")
        if self.uplink_max_retries < 0:
            raise ValueError("uplink_max_retries must be >= 0")
        if self.uplink_timeout <= 0:
            raise ValueError("uplink_timeout must be > 0")
        if self.uplink_backoff < 1.0:
            raise ValueError("uplink_backoff must be >= 1")
        per_client: Dict[int, List[DozeInterval]] = {}
        for interval in self.doze:
            per_client.setdefault(interval.client, []).append(interval)
        for client, intervals in per_client.items():
            intervals.sort(key=lambda iv: iv.start)
            for a, b in zip(intervals, intervals[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"client {client} doze intervals overlap: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )
        ordered = sorted(self.crashes, key=lambda c: c.time)
        for a, b in zip(ordered, ordered[1:]):
            if b.time < a.end:
                raise ValueError(
                    f"server crashes overlap: [{a.time}, {a.end}) and "
                    f"[{b.time}, {b.end})"
                )
        object.__setattr__(self, "crashes", tuple(ordered))

    @property
    def is_noop(self) -> bool:
        """Does this plan inject nothing at all?

        A no-op plan is treated exactly like ``faults=None``: no fault
        runtime is built, no crash process is spawned, and the run is
        bit-identical to a zero-fault run.
        """
        return (
            not self.doze
            and not self.crashes
            and self.uplink_loss_probability <= 0.0
        )

    @property
    def max_doze_client(self) -> int:
        """Largest client index named by a doze interval (-1 if none)."""
        return max((iv.client for iv in self.doze), default=-1)

    def to_dict(self) -> Dict[str, object]:
        """The plan as a JSON-ready dict, losslessly round-trippable.

        What scenario files and recorded traces persist; the inverse is
        :meth:`from_dict` and the pair satisfies
        ``FaultPlan.from_dict(plan.to_dict()) == plan``.
        """
        return {
            "doze": [interval.to_dict() for interval in self.doze],
            "crashes": [crash.to_dict() for crash in self.crashes],
            "uplink_loss_probability": self.uplink_loss_probability,
            "uplink_max_retries": self.uplink_max_retries,
            "uplink_timeout": self.uplink_timeout,
            "uplink_backoff": self.uplink_backoff,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        doze = payload.get("doze", []) or []
        crashes = payload.get("crashes", []) or []
        if not isinstance(doze, (list, tuple)):
            raise ValueError("faults 'doze' must be a list of intervals")
        if not isinstance(crashes, (list, tuple)):
            raise ValueError("faults 'crashes' must be a list of crashes")
        return cls(
            doze=tuple(
                DozeInterval.from_dict(entry) for entry in doze  # type: ignore[arg-type]
            ),
            crashes=tuple(
                ServerCrash.from_dict(entry) for entry in crashes  # type: ignore[arg-type]
            ),
            uplink_loss_probability=float(
                payload.get("uplink_loss_probability", 0.0)  # type: ignore[arg-type]
            ),
            uplink_max_retries=int(
                payload.get("uplink_max_retries", 3)  # type: ignore[arg-type]
            ),
            uplink_timeout=float(
                payload.get("uplink_timeout", 16_384.0)  # type: ignore[arg-type]
            ),
            uplink_backoff=float(
                payload.get("uplink_backoff", 2.0)  # type: ignore[arg-type]
            ),
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        num_clients: int,
        horizon: float,
        mean_time_between_dozes: float = 0.0,
        mean_doze_duration: float = 0.0,
        crashes: Sequence[ServerCrash] = (),
        uplink_loss_probability: float = 0.0,
        uplink_max_retries: int = 3,
        uplink_timeout: float = 16_384.0,
        uplink_backoff: float = 2.0,
    ) -> "FaultPlan":
        """A reproducible plan drawn from its own seed.

        Each client dozes in an alternating renewal process over
        ``[0, horizon)``: exponential on-times with mean
        ``mean_time_between_dozes`` followed by exponential radio-off
        times with mean ``mean_doze_duration`` (zero for either disables
        dozing).  The draw order is fixed, so the plan — like everything
        else in a run — is a pure function of its arguments.
        """
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        rng = random.Random(seed)
        doze: List[DozeInterval] = []
        if mean_time_between_dozes > 0 and mean_doze_duration > 0:
            for client in range(num_clients):
                t = rng.expovariate(1.0 / mean_time_between_dozes)
                while t < horizon:
                    duration = rng.expovariate(1.0 / mean_doze_duration)
                    doze.append(DozeInterval(client, t, duration))
                    t += duration + rng.expovariate(1.0 / mean_time_between_dozes)
        return cls(
            doze=tuple(doze),
            crashes=tuple(crashes),
            uplink_loss_probability=uplink_loss_probability,
            uplink_max_retries=uplink_max_retries,
            uplink_timeout=uplink_timeout,
            uplink_backoff=uplink_backoff,
        )


class FaultRuntime:
    """Per-run mutable fault state the simulation processes consult."""

    def __init__(
        self,
        plan: FaultPlan,
        arithmetic: CycleArithmetic,
        metrics: "MetricsCollector",
        seed: int = 0,
    ) -> None:
        self.plan = plan
        self.metrics = metrics
        #: root of the per-client uplink-loss stream tree (config seed)
        self._seed = seed
        self._uplink_streams: Dict[int, np.random.Generator] = {}
        #: True between a crash and the completed recovery
        self.server_down = False
        self._outage_start: Optional[float] = None
        #: completed outages as closed [start, end] pairs — a slot whose
        #: wait began before a crash may end after the recovery and must
        #: still count as unheard
        self._outages: List[Tuple[float, float]] = []
        per_client: Dict[int, List[DozeInterval]] = {}
        for interval in plan.doze:
            per_client.setdefault(interval.client, []).append(interval)
        self._doze: Dict[int, Tuple[DozeInterval, ...]] = {
            client: tuple(sorted(intervals, key=lambda iv: iv.start))
            for client, intervals in per_client.items()
        }
        #: cycles a rejoining client may safely span under the configured
        #: arithmetic: the paper's ``max_cycles = window - 1`` for modulo
        #: timestamps, unlimited (``None``) for unbounded ones
        self.staleness_window: Optional[int] = (
            arithmetic.window - 1 if isinstance(arithmetic, ModuloCycles) else None
        )

    # -- server outages -------------------------------------------------
    def begin_outage(self, time: float) -> None:
        self.server_down = True
        self._outage_start = time
        self.metrics.server_crashes += 1

    def end_outage(self, time: float) -> None:
        assert self._outage_start is not None
        self._outages.append((self._outage_start, time))
        self._outage_start = None
        self.server_down = False

    # -- client radio ---------------------------------------------------
    def doze_wake(self, client: int, now: float) -> Optional[float]:
        """The wake-up time if ``client`` is dozing at ``now``, else None."""
        for interval in self._doze.get(client, ()):
            if interval.start <= now < interval.end:
                return interval.end
        return None

    def slot_heard(
        self,
        client: int,
        start: float,
        end: float,
        metrics: Optional["MetricsCollector"] = None,
    ) -> bool:
        """Was the broadcast slot ``[start, end]`` fully received?

        A slot overlapping a server outage carried dead air; a slot
        overlapping one of the client's doze intervals found the radio
        off.  Either way the read re-tunes at the object's next
        appearance.  Each miss is charged to its cause — into
        ``metrics`` when given (shards route a client's misses to the
        collector that measures that client), else the run collector.
        """
        if metrics is None:
            metrics = self.metrics
        if self._outage_start is not None and end > self._outage_start:
            metrics.crash_slot_stalls += 1
            return False
        for outage_start, outage_end in self._outages:
            if outage_start < end and start < outage_end:
                metrics.crash_slot_stalls += 1
                return False
        for interval in self._doze.get(client, ()):
            if interval.start < end and start < interval.end:
                metrics.doze_slots_missed += 1
                return False
        return True

    # -- client uplink --------------------------------------------------
    def uplink_lost(self, client: int) -> bool:
        """Draw one uplink-loss Bernoulli from ``client``'s own stream.

        Each client owns an independent :class:`numpy.random.Generator`
        spawned from ``SeedSequence((seed, client))``, so the draw
        sequence a client sees depends only on the config seed and its
        id — never on which executor, shard, or interleaving ran it.
        """
        stream = self._uplink_streams.get(client)
        if stream is None:
            stream = np.random.default_rng(np.random.SeedSequence((self._seed, client)))
            self._uplink_streams[client] = stream
        return float(stream.random()) < self.plan.uplink_loss_probability


def crash_process(
    sim: Simulator,
    config: "SimulationConfig",
    server: "BroadcastServer",
    layout: "BroadcastLayout",
    state: "SharedState",
    metrics: "MetricsCollector",
    trace: Optional["TraceRecorder"] = None,
) -> FaultEvents:
    """Kill and recover the server at each scheduled crash.

    The crash snapshots the durable state (the database carries the
    commit log and the last-broadcast-cycle mark), marks the server down
    for the scheduled downtime — during which the cycle process
    broadcasts nothing, the completion process loses its transactions
    and the uplink returns no verdicts — then rebuilds a server via
    :func:`repro.server.recovery.recover_server`, replays every cycle
    boundary that passed during the downtime as a quiescent cycle, and
    installs the result into the live server object in place.
    """
    faults = state.faults
    assert faults is not None
    tracer = state.tracer
    for crash in faults.plan.crashes:
        yield WaitUntil(crash.time)
        # volatile state dies here; only the database's log + cycle mark
        # survive (snapshotted before anything else can touch them)
        durable_log = server.database.commit_log
        durable_cycle = server.database.last_broadcast_cycle
        crash_start = sim.now
        faults.begin_outage(sim.now)
        yield Timeout(crash.downtime)
        revived = recover_server(
            durable_log,
            config.num_objects,
            config.protocol,
            arithmetic=config.arithmetic(),
            partition=config.partition(),
            current_cycle=durable_cycle,
        )
        # cycles whose boundaries fell inside the outage were dead air;
        # the recovered server re-issues them as quiescent cycles so its
        # cycle counter — and every ModuloCycles anchor derived from it —
        # lines up with wall-clock broadcast time again
        current = layout.cycle_of(sim.now)
        replayed = None
        replayed_count = 0
        for cycle in range(durable_cycle + 1, current + 1):
            replayed = revived.begin_cycle(cycle)
            metrics.quiescent_replay_cycles += 1
            replayed_count += 1
        server.restore_from(revived)
        if replayed is not None:
            # the in-progress cycle's image: clients whose slots end
            # after the recovery read from it
            state.advance(replayed)
            metrics.cycles_broadcast += 1
            if tracer.enabled:
                # the re-issued image goes on air *now*, mid-cycle: the
                # span starts at the recovery instant (the same time the
                # counter is incremented) and runs to the boundary the
                # image nominally covers
                tracer.emit(
                    sim.now,
                    replayed.cycle * layout.cycle_bits,
                    "timeline",
                    0,
                    "cycle",
                    "ok",
                    str(replayed.cycle),
                )
            if trace is not None and trace.record_cycles:
                trace.record_cycle(replayed)
        faults.end_outage(sim.now)
        if tracer.enabled:
            tracer.emit(
                crash_start,
                sim.now,
                "timeline",
                2,
                "crash",
                "ok",
                f"replayed={replayed_count}",
            )
