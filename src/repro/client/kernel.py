"""The client transaction kernel (Sec. 3.2.1, "Client Functionality").

One state machine runs every simulated client: read each object off the
air (or from the quasi-cache), validate the read against the broadcast
control information, restart from scratch on a rejection, and — for an
update transaction — ship the reads and buffered writes over the uplink
for the server's backward validation.  :class:`ClientKernel` holds every
decision of that machine and every side effect it has on metrics, spans
and the trace recorder; :class:`ClientState` is the per-client state it
decides over.

The kernel never waits.  Each method takes the instant its step happens
and returns what the driver needs to schedule the next one, so the same
kernel runs under any transport: the per-process executor
(:func:`repro.sim.processes.client_process`) turns the answers into
``Timeout``/``WaitUntil`` yields, one simulator event per client step;
the cohort executor (:mod:`repro.sim.cohort`) coalesces the slot waits
of many clients into one event per broadcast slot.  Because both drive
this one implementation, the executor oracle tests check the cohort's
coalescing — event order, draw order, batch validation — not a second
copy of the semantics.

Exponential delays are drawn as ``-log(1 - rng.random()) / lambd``, the
exact formula of :meth:`random.Random.expovariate` consuming the same
single draw, so callers that inline the draw stay bit-identical.
"""

from __future__ import annotations

import random
from math import log as _log
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..obs.tracer import Tracer
from .cache import QuasiCache
from .runtime import ClientUpdateTransactionRuntime, ReadOnlyTransactionRuntime

if TYPE_CHECKING:  # sim and server types only; the kernel runs without them
    from ..broadcast.program import BroadcastCycle
    from ..core.validators import ReadValidator
    from ..server.server import BroadcastServer
    from ..server.workload import ClientWorkload
    from ..sim.config import SimulationConfig
    from ..sim.faults import FaultRuntime
    from ..sim.metrics import MetricsCollector
    from ..sim.trace import TraceRecorder

__all__ = ["ClientKernel", "ClientState", "RETRY", "COMMITTED", "CONFLICT"]

#: uplink outcomes (:meth:`ClientKernel.uplink_arrival`); the abort
#: causes double as span statuses and :meth:`MetricsCollector.record_abort`
#: keys, as do the loss causes ``"crash"`` and ``"uplink"``
RETRY = "retry"
COMMITTED = "ok"
CONFLICT = "conflict"
STALENESS = "staleness"


class ClientState:
    """One client's private state: its streams, cache and transaction."""

    __slots__ = (
        "client_id",
        "workload",
        "validator",
        "rng",
        "cache",
        "runtime",
        "txn_index",
        "txn_len",
        "submit_time",
        "restarts",
        "is_update",
        "write_objs",
        "uplink_retries",
        "attempt_start",
        "uplink_start",
    )

    #: the transaction in flight; set by :meth:`ClientKernel.begin_txn`
    runtime: ReadOnlyTransactionRuntime

    def __init__(
        self,
        client_id: int,
        workload: "ClientWorkload",
        validator: "ReadValidator",
        rng: random.Random,
        cache: Optional[QuasiCache],
    ) -> None:
        self.client_id = client_id
        self.workload = workload
        self.validator = validator
        self.rng = rng
        self.cache = cache
        #: transactions begun so far
        self.txn_index = 0
        self.txn_len = 0
        self.submit_time = 0.0
        self.restarts = 0
        self.is_update = False
        self.write_objs: List[int] = []
        self.uplink_retries = 0
        self.attempt_start = 0.0
        self.uplink_start = 0.0


class ClientKernel:
    """Client transaction semantics for every client of one collector."""

    def __init__(
        self,
        config: "SimulationConfig",
        metrics: "MetricsCollector",
        tracer: Tracer,
        trace: Optional["TraceRecorder"],
        faults: Optional["FaultRuntime"],
        server: "BroadcastServer",
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.tracer = tracer
        self.trace = trace
        self.faults = faults
        self.server = server
        #: the paper's max-cycles rejoin bound, active under modulo
        #: timestamps with faults; runtime.deliver enforces it
        self.staleness_window = faults.staleness_window if faults is not None else None
        self.half_rtt = config.uplink_round_trip / 2
        self.restart_delay = config.restart_delay
        self._loss = config.broadcast_loss_probability
        # rates evaluated exactly as expovariate's callers did (1.0 / mean)
        self.op_lambd = 1.0 / config.mean_inter_operation_delay
        self._txn_lambd = 1.0 / config.mean_inter_transaction_delay

    # ------------------------------------------------------------------
    # transactions and delays
    # ------------------------------------------------------------------
    def begin_txn(self, client: ClientState, submit_time: float) -> bool:
        """Install the client's next transaction; False once it has run
        all of its transactions.

        Draws the workload's next program, then — for an update-capable
        client — the update draw from the client's RNG (both gates short-
        circuit, so disabled or read-only clients consume no draw).
        """
        config = self.config
        if client.txn_index >= config.num_client_transactions:
            return False
        client.txn_index += 1
        tid, objects = client.workload.next_transaction()
        tid = f"cl{client.client_id}.{tid}"
        client.is_update = (
            config.client_update_fraction > 0.0
            and config.update_capable(client.client_id)
            and client.rng.random() < config.client_update_fraction
        )
        if client.is_update:
            client.runtime = ClientUpdateTransactionRuntime(
                tid, objects, client.validator, staleness_window=self.staleness_window
            )
            num_writes = max(
                1, round(len(objects) * config.client_update_write_fraction)
            )
            client.write_objs = list(objects[:num_writes])
        else:
            client.runtime = ReadOnlyTransactionRuntime(
                tid, objects, client.validator, staleness_window=self.staleness_window
            )
        client.txn_len = len(client.runtime.objects)
        client.submit_time = submit_time
        client.restarts = 0
        # the first attempt starts the instant the transaction is submitted
        client.attempt_start = submit_time
        return True

    def think_delay(self, client: ClientState) -> float:
        """The exponential inter-operation delay before a read."""
        return -_log(1.0 - client.rng.random()) / self.op_lambd

    def txn_delay(self, client: ClientState) -> float:
        """The exponential inter-transaction delay after a commit."""
        return -_log(1.0 - client.rng.random()) / self._txn_lambd

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def cached(
        self, client: ClientState, obj: int, now: float
    ) -> Optional["BroadcastCycle"]:
        """The quasi-cache's fresh-enough copy of ``obj``, else None."""
        cache = client.cache
        if cache is None:
            return None
        entry = cache.lookup(obj, now)
        if entry is None:
            return None
        self.metrics.cache_hits += 1
        return entry.as_broadcast()

    def heard(self, client: ClientState, slot_start: float, slot_end: float) -> bool:
        """Did the client receive the slot ``[slot_start, slot_end]``?

        A dozing radio or the dead air of a server outage misses the slot
        first (charged to its cause, consuming no randomness); otherwise
        the radio-loss draw decides.  A missed slot re-tunes at the
        object's next appearance.
        """
        faults = self.faults
        if faults is not None and not faults.slot_heard(
            client.client_id, slot_start, slot_end, self.metrics
        ):
            return False
        if self._loss > 0.0 and client.rng.random() < self._loss:
            self.metrics.broadcast_losses += 1
            return False
        return True

    def deliver(
        self, client: ClientState, broadcast: "BroadcastCycle", now: float
    ) -> bool:
        """Validate and apply the pending read against ``broadcast``;
        True iff it was delivered (False: the attempt aborted and
        restarted)."""
        outcome = client.runtime.deliver(broadcast)
        if not outcome.ok:
            self.reject(client, now, outcome.obj, outcome.stale)
            return False
        self.metrics.reads_delivered += 1
        return True

    def receive(
        self,
        client: ClientState,
        broadcast: "BroadcastCycle",
        obj: int,
        now: float,
        ok: Optional[bool] = None,
    ) -> bool:
        """A read of ``obj`` heard off the air at ``now``; True iff it
        was delivered (False: the attempt aborted and restarted).

        The slot's content fills the quasi-cache first.  ``ok`` is a
        verdict batch validation already recorded into the client's
        ``R_t``; without one (or under a staleness window, whose rejoin
        guard needs the runtime's own bookkeeping) the runtime validates.
        """
        cache = client.cache
        if cache is not None:
            cache.insert(broadcast, obj, now)
        if ok is None:
            return self.deliver(client, broadcast, now)
        if not ok:
            self.reject(client, now, obj)
            return False
        if self.trace is None:
            client.runtime.apply_read_ok_untraced()
        else:
            client.runtime.apply_read_ok(broadcast)
        self.metrics.reads_delivered += 1
        return True

    def reject(
        self, client: ClientState, now: float, obj: int, stale: bool = False
    ) -> None:
        """The read of ``obj`` failed validation (or, ``stale``, the
        staleness guard): abort the attempt and restart it."""
        self.metrics.reads_rejected += 1
        cache = client.cache
        if cache is not None:
            # every read of this attempt is a staleness suspect — evict
            # them so the retry re-fetches off the air instead of
            # re-aborting on the same cached versions
            cache.evict(obj)
            for read_obj, _cycle in client.runtime.reads:
                cache.evict(read_obj)
        self.abort(client, now, STALENESS if stale else CONFLICT)

    def abort(self, client: ClientState, now: float, cause: str) -> None:
        """Abort the attempt at ``now`` and restart the transaction; the
        next attempt begins ``restart_delay`` later."""
        self.metrics.record_abort(cause)
        self._span(client, client.attempt_start, now, "attempt", cause)
        client.restarts += 1
        client.runtime.restart()
        client.attempt_start = now + self.restart_delay

    def reads_done(self, client: ClientState) -> bool:
        """Every read validated: True iff the transaction commits on the
        spot (read-only); an update transaction goes up the uplink."""
        client.runtime.commit()
        return not client.is_update

    # ------------------------------------------------------------------
    # the uplink
    # ------------------------------------------------------------------
    def begin_uplink(self, client: ClientState, now: float) -> float:
        """Buffer the writes (stamped ``tid#attempt``) and ship the
        submission; returns its arrival time half a round trip later."""
        runtime = client.runtime
        assert isinstance(runtime, ClientUpdateTransactionRuntime)
        for obj in client.write_objs:
            runtime.write(obj, f"{runtime.tid}#{runtime.attempt}")
        client.uplink_retries = 0
        client.uplink_start = now
        return now + self.half_rtt

    def uplink_arrival(self, client: ClientState, now: float) -> Tuple[str, float]:
        """The submission reaches the server at ``now`` — or does not.

        With faults active it is lost if the server is down or the
        client's own uplink-loss stream says so; no verdict comes back,
        and the client waits out the verdict timeout, backs off
        multiplicatively and resubmits, up to ``uplink_max_retries``
        times.  Returns ``(outcome, wait)``:

        * ``(RETRY, backoff)`` — resubmit after ``backoff``; the copy
          arrives half a round trip after that;
        * ``(COMMITTED, half_rtt)`` / ``(CONFLICT, half_rtt)`` — the
          server's verdict reaches the client ``half_rtt`` later; the
          caller records a commit with :meth:`commit` at that time, a
          rejection is already aborted and restarted;
        * ``("crash" | "uplink", 0.0)`` — retries exhausted: the attempt
          aborted and restarted at ``now``.
        """
        metrics = self.metrics
        faults = self.faults
        if faults is not None:
            plan = faults.plan
            cause: Optional[str] = None
            if faults.server_down:
                # the submission reaches a dead uplink: no verdict ever
                metrics.uplink_crash_losses += 1
                cause = "crash"
            elif plan.uplink_loss_probability > 0.0 and faults.uplink_lost(
                client.client_id
            ):
                metrics.uplink_losses += 1
                cause = "uplink"
            if cause is not None:
                if client.uplink_retries >= plan.uplink_max_retries:
                    self._span(client, client.uplink_start, now, "uplink", cause)
                    self.abort(client, now, cause)
                    return cause, 0.0
                self._span(client, now, now, "uplink.retry", cause)
                retries = client.uplink_retries
                backoff = plan.uplink_timeout * plan.uplink_backoff**retries
                client.uplink_retries += 1
                metrics.uplink_retries += 1
                return RETRY, backoff
        runtime = client.runtime
        assert isinstance(runtime, ClientUpdateTransactionRuntime)
        outcome = self.server.submit_client_update(runtime.submission())
        verdict_time = now + self.half_rtt
        if outcome.committed:
            metrics.client_updates_committed += 1
            self._span(client, client.uplink_start, verdict_time, "uplink", COMMITTED)
            return COMMITTED, self.half_rtt
        metrics.client_updates_rejected += 1
        self._span(client, client.uplink_start, verdict_time, "uplink", CONFLICT)
        self.abort(client, verdict_time, CONFLICT)
        return CONFLICT, self.half_rtt

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def commit(self, client: ClientState, now: float) -> float:
        """Record the transaction's commit at ``now``; returns when the
        client submits its next one (after the inter-transaction delay)."""
        runtime = client.runtime
        self.metrics.record_commit(
            runtime.tid, client.submit_time, now, client.restarts
        )
        self._span(client, client.attempt_start, now, "attempt", COMMITTED)
        self._span(client, client.submit_time, now, "txn", COMMITTED)
        trace = self.trace
        if trace is not None:
            trace.record_session_commit(client.client_id, runtime.tid)
            if not client.is_update:
                trace.record_client_commit(runtime.tid, runtime.versions, runtime.reads)
        return now + self.txn_delay(client)

    def _span(
        self, client: ClientState, start: float, end: float, name: str, status: str
    ) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                start, end, "client", client.client_id, name, status, client.runtime.tid
            )
