"""Simulation processes: the broadcast cycle, the server, and clients.

Event choreography (all times in bit-units):

* the **cycle process** fires at every cycle boundary, freezing the
  committed database + control info into the cycle's broadcast image;
* the **server process** completes update transactions with exponential
  (or deterministic) inter-completion gaps — rate 1 per
  ``server_txn_interval`` (Table 1) — committing them in completion
  order, which is therefore the serialization order the control matrix
  needs;
* each **client process** runs read-only transactions back to back: an
  exponential think time before each read (except the first, matching
  "inter-operation delay"), a wait until the object's slot in the
  broadcast, validation against the cycle's control snapshot, abort and
  restart from scratch on rejection, and an exponential inter-transaction
  delay after commit.  Response time spans submission to commit,
  including restarts (Sec. 4's metric).

Object slots lie strictly inside a cycle and cycle-boundary events are
scheduled before same-time reads, so a read at slot time ``t`` always
observes the broadcast image of the cycle containing ``t``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional, Sequence, Union

from ..broadcast.layout import FlatLayout
from ..broadcast.program import BroadcastCycle
from ..client.cache import QuasiCache
from ..client.runtime import ClientUpdateTransactionRuntime, ReadOnlyTransactionRuntime
from ..core.validators import ReadValidator
from ..obs.tracer import NULL_TRACER, Tracer
from ..server.server import BroadcastServer
from ..server.workload import ClientWorkload, ServerWorkload
from .config import SimulationConfig
from .engine import Simulator, Timeout, WaitUntil
from .metrics import MetricsCollector
from .trace import TraceRecorder

if TYPE_CHECKING:  # type-only: faults imports engine, never processes
    from .faults import FaultRuntime

__all__ = ["SharedState", "cycle_process", "server_process", "client_process"]

#: what a simulation process generator yields / returns
SimEvents = Generator[Union[Timeout, WaitUntil], None, None]
SimAttempt = Generator[Union[Timeout, WaitUntil], None, bool]

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
    config: SimulationConfig,
    client_id: int,
    workload: ClientWorkload,
    validator: ReadValidator,
    layout: FlatLayout,
    state: SharedState,
    metrics: MetricsCollector,
    rng: random.Random,
    server: Optional[BroadcastServer] = None,
    trace: Optional[TraceRecorder] = None,
    cache: Optional[QuasiCache] = None,
    tracer: Tracer = NULL_TRACER,
) -> "SimEvents":
    """Run ``num_client_transactions`` client transactions to commit.

    A configurable fraction are *update* transactions (Sec. 3.2.1's
    client functionality): they validate their reads off the air like
    everyone else, buffer writes locally, and at commit ship the
    submission over the uplink for backward validation — a rejection
    restarts the transaction just like a failed read.
    """
    restart_pause = Timeout(config.restart_delay) if config.restart_delay > 0 else None
    faults = state.faults
    staleness_window = faults.staleness_window if faults is not None else None
    for _txn_index in range(config.num_client_transactions):
        tid, objects = workload.next_transaction()
        tid = f"cl{client_id}.{tid}"
        is_update = (
            config.client_update_fraction > 0.0
            and server is not None
            and config.update_capable(client_id)
            and rng.random() < config.client_update_fraction
        )
        if is_update:
            runtime: ReadOnlyTransactionRuntime = ClientUpdateTransactionRuntime(
                tid, objects, validator, staleness_window=staleness_window
            )
            num_writes = max(
                1, round(len(objects) * config.client_update_write_fraction)
            )
            write_objs = list(objects[:num_writes])
        else:
            runtime = ReadOnlyTransactionRuntime(
                tid, objects, validator, staleness_window=staleness_window
            )
            write_objs = []
        submit_time = sim.now
        restarts = 0

        while True:  # attempts
            attempt_start = sim.now
            committed = yield from _attempt(
                sim,
                config,
                runtime,
                layout,
                state,
                metrics,
                rng,
                cache,
                client_id=client_id,
                tracer=tracer,
                attempt_start=attempt_start,
            )
            if committed and is_update:
                committed = yield from _submit_update(
                    sim,
                    config,
                    runtime,
                    write_objs,
                    server,
                    metrics,
                    state=state,
                    client_id=client_id,
                    tracer=tracer,
                    attempt_start=attempt_start,
                )
            if committed:
                if tracer.enabled:
                    tracer.emit(
                        attempt_start, sim.now, "client", client_id, "attempt", "ok", tid
                    )
                break
            restarts += 1
            runtime.restart()
            if restart_pause is not None:
                yield restart_pause

        metrics.record_commit(tid, submit_time, sim.now, restarts)
        if tracer.enabled:
            tracer.emit(submit_time, sim.now, "client", client_id, "txn", "ok", tid)
        if trace is not None:
            trace.record_session_commit(client_id, tid)
            if not is_update:
                trace.record_client_commit(tid, runtime.versions, runtime.reads)
        yield Timeout(rng.expovariate(1.0 / config.mean_inter_transaction_delay))

    state.clients_done += 1


def _submit_update(
    sim: Simulator,
    config: SimulationConfig,
    runtime: ReadOnlyTransactionRuntime,
    write_objs: Sequence[int],
    server: "BroadcastServer",
    metrics: MetricsCollector,
    state: Optional[SharedState] = None,
    client_id: int = 0,
    tracer: Tracer = NULL_TRACER,
    attempt_start: float = 0.0,
) -> "SimAttempt":
    """Ship a finished update transaction up the uplink; True iff committed.

    With faults active a submission can be lost — in transit (the plan's
    ``uplink_loss_probability``, drawn from the client's own seeded
    stream so the sequence is independent of executor and shard layout)
    or because the server is down when it arrives.  Either way no
    verdict comes back: the client waits out the plan's verdict timeout,
    backs off multiplicatively, and resubmits, up to
    ``uplink_max_retries`` times before the attempt aborts with a
    cause-attributed metric.
    """
    assert isinstance(runtime, ClientUpdateTransactionRuntime)
    for obj in write_objs:
        runtime.write(obj, f"{runtime.tid}#{runtime.attempt}")
    faults = state.faults if state is not None else None
    plan = faults.plan if faults is not None else None
    half_rtt = Timeout(config.uplink_round_trip / 2)
    retries = 0
    uplink_start = sim.now
    tid = runtime.tid
    while True:
        yield half_rtt
        if plan is not None and faults is not None:
            if faults.server_down:
                # the submission reaches a dead uplink: no verdict ever
                metrics.uplink_crash_losses += 1
                cause = "crash"
            elif plan.uplink_loss_probability > 0.0 and faults.uplink_lost(
                client_id
            ):
                metrics.uplink_losses += 1
                cause = "uplink"
            else:
                cause = None
            if cause is not None:
                if retries >= plan.uplink_max_retries:
                    metrics.record_abort(cause)
                    if tracer.enabled:
                        tracer.emit(
                            uplink_start, sim.now, "client", client_id,
                            "uplink", cause, tid,
                        )
                        tracer.emit(
                            attempt_start, sim.now, "client", client_id,
                            "attempt", cause, tid,
                        )
                    return False
                if tracer.enabled:
                    tracer.emit(
                        sim.now, sim.now, "client", client_id,
                        "uplink.retry", cause, tid,
                    )
                # wait out the verdict timeout, back off, resubmit
                yield Timeout(  # rep: allow-alloc — backoff grows per retry
                    plan.uplink_timeout * plan.uplink_backoff**retries
                )
                retries += 1
                metrics.uplink_retries += 1
                continue
        outcome = server.submit_client_update(runtime.submission())
        yield half_rtt
        if outcome.committed:
            metrics.client_updates_committed += 1
            if tracer.enabled:
                tracer.emit(
                    uplink_start, sim.now, "client", client_id, "uplink", "ok", tid
                )
            return True
        metrics.client_updates_rejected += 1
        metrics.record_abort("conflict")
        if tracer.enabled:
            tracer.emit(
                uplink_start, sim.now, "client", client_id, "uplink", "conflict", tid
            )
            tracer.emit(
                attempt_start, sim.now, "client", client_id, "attempt", "conflict", tid
            )
        return False


def _attempt(
    sim: Simulator,
    config: SimulationConfig,
    runtime: ReadOnlyTransactionRuntime,
    layout: FlatLayout,
    state: SharedState,
    metrics: MetricsCollector,
    rng: random.Random,
    cache: Optional[QuasiCache],
    client_id: int = 0,
    tracer: Tracer = NULL_TRACER,
    attempt_start: float = 0.0,
) -> "SimAttempt":
    """One attempt of a client transaction; True iff it commits."""
    faults = state.faults
    first = True
    while not runtime.is_done:
        if not first or config.delay_before_first_operation:
            yield Timeout(rng.expovariate(1.0 / config.mean_inter_operation_delay))
        first = False
        obj = runtime.next_object
        assert obj is not None

        broadcast: Optional[BroadcastCycle] = None
        if cache is not None:
            entry = cache.lookup(obj, sim.now)
            if entry is not None:
                broadcast = entry.as_broadcast()
                metrics.cache_hits += 1
        if broadcast is None:
            while True:
                if faults is not None:
                    wake = faults.doze_wake(client_id, sim.now)
                    if wake is not None:
                        # the radio is off: fast-forward to the rejoin
                        yield WaitUntil(wake)  # rep: allow-alloc — doze rejoin
                hit = layout.next_read(obj, sim.now)
                yield WaitUntil(hit.time)  # rep: allow-alloc — a new slot per retry
                if faults is not None and not faults.slot_heard(
                    client_id, hit.time - layout.slot_bits, hit.time
                ):
                    # dozed or dead air through (part of) the slot: same
                    # re-tune as a radio loss, but charged to its cause
                    yield _LOSS_RETUNE
                    continue
                if (
                    config.broadcast_loss_probability > 0.0
                    and rng.random() < config.broadcast_loss_probability
                ):
                    # radio loss: the slot went by unheard; catch the
                    # object's next appearance
                    metrics.broadcast_losses += 1
                    yield _LOSS_RETUNE
                    continue
                break
            broadcast = state.broadcast_for(hit.cycle)
            # tuning time: the client listened for the whole slot (data +
            # its control share); a cache hit costs nothing — the battery
            # argument of Secs. 2.1/3.3 made measurable
            metrics.listening_bits += layout.slot_bits
            if cache is not None:
                cache.insert(broadcast, obj, sim.now)

        outcome = runtime.deliver(broadcast)
        if outcome.ok:
            metrics.reads_delivered += 1
        else:
            metrics.reads_rejected += 1
            cause = "staleness" if outcome.stale else "conflict"
            metrics.record_abort(cause)
            if cache is not None:
                # every read of this attempt is a staleness suspect —
                # evict them so the retry re-fetches off the air instead
                # of re-aborting on the same cached versions
                cache.evict(outcome.obj)
                for read_obj, _cycle in runtime.reads:
                    cache.evict(read_obj)
            if tracer.enabled:
                tracer.emit(
                    attempt_start, sim.now, "client", client_id,
                    "attempt", cause, runtime.tid,
                )
            return False
    runtime.commit()
    return True
