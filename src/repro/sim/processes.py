"""Simulation processes: the broadcast cycle, the server, and clients.

Event choreography (all times in bit-units):

* the **cycle process** fires at every cycle boundary, freezing the
  committed database + control info into the cycle's broadcast image;
* the **server process** completes update transactions with exponential
  (or deterministic) inter-completion gaps — rate 1 per
  ``server_txn_interval`` (Table 1) — committing them in completion
  order, which is therefore the serialization order the control matrix
  needs;
* each **client process** runs its transactions back to back on the
  shared client kernel (:mod:`repro.client.kernel`): an exponential
  think time before each read (except the first, matching
  "inter-operation delay"), a wait until the object's slot in the
  broadcast, validation against the cycle's control snapshot, abort and
  restart from scratch on rejection, an update's uplink round trip, and
  an exponential inter-transaction delay after commit.  Response time
  spans submission to commit, including restarts (Sec. 4's metric).

Object slots lie strictly inside a cycle and cycle-boundary events are
scheduled before same-time reads, so a read at slot time ``t`` always
observes the broadcast image of the cycle containing ``t``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional, Union

from ..broadcast.layout import FlatLayout
from ..broadcast.program import BroadcastCycle
from ..client.kernel import COMMITTED, CONFLICT, RETRY, ClientKernel, ClientState
from ..obs.tracer import NULL_TRACER, Tracer
from ..server.server import BroadcastServer
from ..server.workload import ServerWorkload
from .config import SimulationConfig
from .engine import Simulator, Timeout, WaitUntil
from .metrics import MetricsCollector
from .trace import TraceRecorder

if TYPE_CHECKING:  # type-only: faults imports engine, never processes
    from .faults import FaultRuntime

__all__ = ["SharedState", "cycle_process", "server_process", "client_process"]

#: what a simulation process generator yields
SimEvents = Generator[Union[Timeout, WaitUntil], None, None]

#: the 1-bit re-tune pause after a lost slot; immutable, so one shared
#: instance serves every loss event in every client
_LOSS_RETUNE = Timeout(1.0)


@dataclass
class SharedState:
    """State shared between the simulation's processes."""

    current_broadcast: Optional[BroadcastCycle] = None
    previous_broadcast: Optional[BroadcastCycle] = None
    clients_done: int = 0
    num_clients: int = 1
    #: per-run fault state; None on zero-fault runs — every fault hook in
    #: the processes below is guarded on it, so fault-free event sequences
    #: are untouched
    faults: Optional["FaultRuntime"] = None
    #: span sink for the timeline-side processes (cycle/server/crash);
    #: the no-op singleton unless tracing is on *and* this shard owns
    #: the timeline (exactly one primary emits timeline spans, mirroring
    #: the primary-only timeline-metrics rule)
    tracer: Tracer = NULL_TRACER

    @property
    def all_clients_done(self) -> bool:
        return self.clients_done >= self.num_clients

    def advance(self, broadcast: BroadcastCycle) -> None:
        self.previous_broadcast = self.current_broadcast
        self.current_broadcast = broadcast

    def broadcast_for(self, cycle: int) -> BroadcastCycle:
        """The broadcast image of ``cycle``.

        The last object's slot ends exactly on the cycle boundary, at
        which instant the next image has already been installed — hence
        the previous image is retained one cycle.
        """
        for candidate in (self.current_broadcast, self.previous_broadcast):
            if candidate is not None and candidate.cycle == cycle:
                return candidate
        raise RuntimeError(f"no broadcast image for cycle {cycle}")


def cycle_process(
    sim: Simulator,
    server: BroadcastServer,
    layout: FlatLayout,
    state: SharedState,
    trace: Optional[TraceRecorder] = None,
    metrics: Optional[MetricsCollector] = None,
) -> "SimEvents":
    """Freeze and 'transmit' one broadcast image per cycle, forever."""
    cycle = 0
    # the events are immutable descriptors: one instance serves every cycle
    cycle_tick = Timeout(layout.cycle_bits)
    tracer = state.tracer
    while True:
        cycle += 1
        faults = state.faults
        if faults is not None and (
            faults.server_down or server.current_cycle >= cycle
        ):
            # dead air: the server is down — or crash recovery already
            # re-issued this cycle as a quiescent replay — so no fresh
            # image goes out at this boundary
            yield cycle_tick
            continue
        broadcast = server.begin_cycle(cycle)
        state.advance(broadcast)
        if metrics is not None:
            metrics.cycles_broadcast += 1
        if tracer.enabled:
            tracer.emit(
                sim.now,
                sim.now + layout.cycle_bits,
                "timeline",
                0,
                "cycle",
                "ok",
                str(cycle),
            )
        if trace is not None and trace.record_cycles:
            trace.record_cycle(broadcast)
        yield cycle_tick


def server_process(
    sim: Simulator,
    config: SimulationConfig,
    server: BroadcastServer,
    workload: ServerWorkload,
    layout: FlatLayout,
    rng: random.Random,
    metrics: MetricsCollector,
    state: Optional[SharedState] = None,
) -> "SimEvents":
    """Complete server update transactions at the configured rate."""
    deterministic = config.server_interval_distribution == "deterministic"
    faults = state.faults if state is not None else None
    tracer = state.tracer if state is not None else NULL_TRACER
    while True:
        if deterministic:
            gap = config.server_txn_interval
        else:
            gap = rng.expovariate(1.0 / config.server_txn_interval)
        yield Timeout(gap)  # rep: allow-alloc — the gap varies per event
        spec = workload.next_transaction()
        if faults is not None and faults.server_down:
            # the completion evaporates with the crashed server
            metrics.server_txns_lost += 1
            if tracer.enabled:
                tracer.emit(
                    sim.now, sim.now, "timeline", 1, "server.commit", "lost", spec.tid
                )
            continue
        if not spec.write_set:
            continue  # read-only at the server: nothing to install
        cycle = layout.cycle_of(sim.now)
        writes = {obj: spec.tid for obj in spec.write_set}
        server.commit_update(spec.tid, spec.read_set, writes, cycle=cycle)
        metrics.server_commits += 1
        if tracer.enabled:
            tracer.emit(
                sim.now, sim.now, "timeline", 1, "server.commit", "ok", spec.tid
            )


def client_process(
    sim: Simulator,
    kernel: ClientKernel,
    client: ClientState,
    layout: FlatLayout,
    state: SharedState,
) -> "SimEvents":
    """Run one client's transactions to commit, one event per step.

    The kernel decides every step (Sec. 3.2.1's client functionality);
    this generator only waits: the think delay before each read (except
    the first, matching "inter-operation delay"), the object's slot — or
    a doze rejoin, or a 1-bit re-tune after a missed slot — the update's
    uplink transits and backoffs, the restart pause and the trailing
    inter-transaction delay.
    """
    config = kernel.config
    metrics = kernel.metrics
    faults = state.faults
    client_id = client.client_id
    slot_bits = layout.slot_bits
    delay_first = config.delay_before_first_operation
    restart_pause = Timeout(config.restart_delay) if config.restart_delay > 0 else None
    half_rtt = Timeout(kernel.half_rtt)
    while kernel.begin_txn(client, sim.now):
        runtime = client.runtime
        first = True
        while True:  # reads, restarting from scratch after an abort
            if not first or delay_first:
                yield Timeout(kernel.think_delay(client))  # rep: allow-alloc
            first = False
            obj = runtime.next_object
            assert obj is not None
            broadcast = kernel.cached(client, obj, sim.now)
            if broadcast is not None:
                delivered = kernel.deliver(client, broadcast, sim.now)
            else:
                while True:
                    if faults is not None:
                        wake = faults.doze_wake(client_id, sim.now)
                        if wake is not None:
                            # the radio is off: fast-forward to the rejoin
                            yield WaitUntil(wake)  # rep: allow-alloc — doze rejoin
                    hit = layout.next_read(obj, sim.now)
                    yield WaitUntil(hit.time)  # rep: allow-alloc — slot per retry
                    if kernel.heard(client, hit.time - slot_bits, hit.time):
                        break
                    # the slot went by unheard: catch the object's next
                    # appearance
                    yield _LOSS_RETUNE
                # tuning time: the client listened for the whole slot
                # (data + its control share); a cache hit costs nothing —
                # the battery argument of Secs. 2.1/3.3 made measurable
                metrics.listening_bits += slot_bits
                broadcast = state.broadcast_for(hit.cycle)
                delivered = kernel.receive(client, broadcast, obj, sim.now)
            if delivered:
                if not runtime.is_done:
                    continue
                if kernel.reads_done(client):
                    break  # a read-only transaction commits on the spot
                # an update ships its reads and writes up the uplink
                kernel.begin_uplink(client, sim.now)
                while True:
                    yield half_rtt
                    outcome, backoff = kernel.uplink_arrival(client, sim.now)
                    if outcome != RETRY:
                        break
                    yield Timeout(backoff)  # rep: allow-alloc — grows per retry
                if outcome == COMMITTED or outcome == CONFLICT:
                    yield half_rtt  # the verdict's trip back
                if outcome == COMMITTED:
                    break
            # the attempt aborted and the kernel restarted the transaction
            if restart_pause is not None:
                yield restart_pause
            first = True
        yield WaitUntil(kernel.commit(client, sim.now))  # rep: allow-alloc
    state.clients_done += 1
