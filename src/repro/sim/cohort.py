"""Slot-coalesced cohort execution for large read-only client populations.

The per-process client path (:func:`repro.sim.processes.client_process`)
pays one generator step plus one heapq push/pop **per client per event**:
a think-time timeout, then a wait for the object's broadcast slot, for
every read of every client.  With hundreds or thousands of clients the
simulation kernel, not the protocol work, dominates wall-clock time.

The cohort executor removes that per-client constant factor with three
observations, none of which changes a single simulated outcome:

1. **Think-time events are unobservable.**  Between a commit (or a
   delivered read) and the next slot wait, a client only draws its think
   delay and computes the slot of its next object — no shared state is
   read at the think-expiry instant.  The chain ``now → think expiry →
   slot end`` therefore collapses into one local computation, eliminating
   the timeout event entirely.

2. **Slot waits coalesce.**  Every client waiting for the same broadcast
   slot resumes at the same instant and reads the same object from the
   same frozen cycle image.  Bucketing them (a calendar keyed by slot-end
   time) fires **one** simulator event per occupied slot instead of one
   per client.

3. **Validation batches.**  Within a bucket all clients evaluate the same
   protocol's read condition against the same control snapshot, so the
   whole bucket is validated with one fancy-indexed comparison
   (:func:`repro.core.validators.validate_read_batch`).

Determinism is preserved exactly: each client draws from its private RNG
stream in the same order the per-process path would, and bucket members
are processed in the order their slot waits would have been *issued*
(think-expiry time, ties by enqueue order) — which is the order the
per-process path's same-time events fire in.  The fast lane inlines the
kernel's think-delay draw, ``-log(1 - rng.random()) / lambd``, consuming
the same single draw, so its values are bit-identical too.  Oracle tests
assert bit-identical commits, restarts, response times and every counter
against the per-process path on randomized configs.

Update transactions are coalesced too: an update's read phase rides the
same slot calendar as everyone else's, and its uplink round-trip becomes
a chain of scheduled arrival callbacks — the submission reaches the
server (a real event, where loss draws and the server's backward
validation happen) at the instant the per-process client's uplink wait
ends, and the verdict's consequences are computed inline (they touch
only client-private state).

Every client decision — transaction draws, delays, whether a slot was
heard, a read's consequences, uplink outcomes, commits — is made by the
shared :class:`repro.client.kernel.ClientKernel`, the same one the
per-process path drives.  This module owns only the scheduling: the slot
calendar, the bucket ordering, batch validation, and the inlined
deliver-and-reseek step of the cache-less fast lane.  Fault plans
(docs/FAULTS.md) shift a member's seek time to its doze rejoin exactly
like the per-process ``doze_wake`` wait; runs under a modulo staleness
guard skip batch validation and let the kernel call ``runtime.deliver``
per member (the guard consults per-runtime rejoin state that batch
validation cannot see).
"""

from __future__ import annotations

from functools import partial
from math import log as _log
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..broadcast.layout import BroadcastLayout, FlatLayout
from ..client.kernel import COMMITTED, RETRY, ClientKernel, ClientState
from ..core.validators import validate_read_batch, validate_read_batch_inorder
from .engine import Simulator
from .processes import SharedState

__all__ = ["CohortExecutor"]


class _Bucket:
    """Clients awaiting one broadcast slot (same object, same cycle)."""

    __slots__ = ("obj", "cycle", "members")

    def __init__(self, obj: int, cycle: int) -> None:
        self.obj = obj
        self.cycle = cycle
        #: (issue time, enqueue order, client) — sorted before processing
        #: so clients fire in the order their per-process WaitUntil
        #: events would have been pushed
        self.members: List[Tuple[float, int, ClientState]] = []


class CohortExecutor:
    """Runs a client population through slot-coalesced buckets."""

    def __init__(
        self,
        *,
        sim: Simulator,
        layout: BroadcastLayout,
        state: SharedState,
        kernel: ClientKernel,
        clients: Sequence[ClientState],
    ) -> None:
        self.sim = sim
        self.layout = layout
        self.state = state
        self.kernel = kernel
        self.metrics = kernel.metrics
        self.clients = list(clients)
        self.faults = state.faults
        self._buckets: Dict[float, _Bucket] = {}
        #: (time, fire-callback) pairs not yet pushed — flushed in one
        #: schedule_many call per entry point to cut heapq churn
        self._new_buckets: List[Tuple[float, Callable[[], None]]] = []
        self._enqueue_order = 0
        # flat layouts are the common case: their slot timing is pure
        # arithmetic, inlined in _seek_slot; other layouts go through
        # layout.next_read
        if isinstance(layout, FlatLayout):
            self._flat_offsets: Optional[List[int]] = [
                layout.slot_end_offset(obj) for obj in range(layout.num_objects)
            ]
        else:
            self._flat_offsets = None
        self._cycle_bits = layout.cycle_bits
        self._slot_bits = layout.slot_bits  # type: ignore[attr-defined]
        #: some slot may go unheard: a fault plan or radio loss is active
        self._lossy = (
            self.faults is not None or kernel.config.broadcast_loss_probability > 0.0
        )
        #: untraced, fault-free, flat-layout runs — the regime this
        #: executor exists for — send cache-less members down _fire's
        #: inlined lane
        self._fast = (
            kernel.trace is None
            and self._flat_offsets is not None
            and self.faults is None
        )
        # cache-less uniform populations with absolute timestamps satisfy
        # validate_read_batch_inorder's precondition for every bucket
        # (checked once here instead of per member per bucket)
        self._batch_validate = validate_read_batch
        if (
            all(c.cache is None for c in self.clients)
            # rep: allow-client-loop — one startup scan, not a hot path
            and len({c.validator.__class__ for c in self.clients}) == 1
            and all(c.validator._vectorisable for c in self.clients)
        ):
            self._batch_validate = validate_read_batch_inorder

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin every client's first transaction (call before run)."""
        for client in self.clients:
            if self.kernel.begin_txn(client, 0.0):
                self._advance(client, 0.0, first=True)
            else:
                self.state.clients_done += 1
        self._flush_schedules()

    def _complete(self, client: ClientState, time: float) -> Optional[float]:
        """All of the client's reads validated at ``time``.

        A read-only transaction commits on the spot; an update ships its
        submission up the uplink.  Returns the next transaction's start
        time, or ``None`` when the client left the calendar (finished,
        or awaiting an uplink verdict).
        """
        kernel = self.kernel
        if not kernel.reads_done(client):
            self.sim.schedule(
                kernel.begin_uplink(client, time), partial(self._uplink_arrival, client)
            )
            return None
        return self._next_txn(client, kernel.commit(client, time))

    def _next_txn(self, client: ClientState, start_time: float) -> Optional[float]:
        if self.kernel.begin_txn(client, start_time):
            return start_time
        # the per-process client is done only after its trailing
        # inter-transaction delay elapses — keep that as a real event so
        # the run's stop time matches exactly
        self.sim.schedule(start_time, partial(self._client_done, client))
        return None

    def _client_done(self, client: ClientState) -> None:
        self.state.clients_done += 1

    # ------------------------------------------------------------------
    # the inline chain: think delays, cache hits, commits
    # ------------------------------------------------------------------
    def _advance(self, client: ClientState, now: float, first: bool) -> None:
        """Drive ``client`` forward from ``now`` until it blocks on a
        broadcast slot, enters the uplink chain, or finishes.

        Collapses the per-process chain of think-time timeouts and cache
        hits into local computation: every value observed (cache content,
        validator state, RNG draws) is private to the client, so nothing
        the rest of the simulation does between ``now`` and the computed
        slot wait can change the outcome.
        """
        kernel = self.kernel
        delay_first = kernel.config.delay_before_first_operation
        while True:
            issue = now
            if not first or delay_first:
                issue = now + kernel.think_delay(client)
            obj = client.runtime.next_object
            assert obj is not None
            broadcast = kernel.cached(client, obj, issue)
            if broadcast is None:
                self._seek_slot(client, obj, issue)
                return
            if not kernel.deliver(client, broadcast, issue):
                now, first = issue + kernel.restart_delay, True
            elif not client.runtime.is_done:
                now, first = issue, False
            else:
                start_time = self._complete(client, issue)
                if start_time is None:
                    return
                now, first = start_time, True

    # ------------------------------------------------------------------
    # the slot calendar
    # ------------------------------------------------------------------
    def _seek_slot(self, client: ClientState, obj: int, issue: float) -> None:
        faults = self.faults
        if faults is not None:
            # the per-process path checks the (static) doze schedule at
            # seek time and fast-forwards to the rejoin; the member's
            # issue time becomes the wake — the instant its per-process
            # WaitUntil(hit.time) would have been pushed
            wake = faults.doze_wake(client.client_id, issue)
            if wake is not None:
                issue = wake
        offsets = self._flat_offsets
        if offsets is not None:
            # FlatLayout.next_read, inlined (pure arithmetic, no SlotHit)
            cycle_bits = self._cycle_bits
            cycle = int(issue // cycle_bits) + 1
            end = (cycle - 1) * cycle_bits + offsets[obj]
            if cycle > 1 and end - cycle_bits >= issue:
                cycle -= 1
                end -= cycle_bits
            elif end < issue:
                cycle += 1
                end += cycle_bits
        else:
            hit = self.layout.next_read(obj, issue)
            end, cycle = hit.time, hit.cycle
        bucket = self._buckets.get(end)
        if bucket is None:
            bucket = _Bucket(obj, cycle)
            self._buckets[end] = bucket
            self._new_buckets.append((end, partial(self._fire, end)))
        order = self._enqueue_order
        self._enqueue_order = order + 1
        bucket.members.append((issue, order, client))

    def _flush_schedules(self) -> None:
        if self._new_buckets:
            self.sim.schedule_many(self._new_buckets)
            self._new_buckets.clear()

    def _fire(self, time: float) -> None:
        """Process one occupied slot: every client whose wait ends now."""
        bucket = self._buckets.pop(time)
        members = bucket.members
        if len(members) > 1:
            members.sort()
        kernel = self.kernel
        metrics = self.metrics
        obj = bucket.obj

        # phase 1 — who heard the slot, checked per client in issue
        # order exactly as the per-process loop would at its own slot
        # event; each miss re-seeks the object's next appearance
        if self._lossy:
            slot_start = time - self._slot_bits
            survivors: List[ClientState] = []
            for _issue, _order, client in members:
                if kernel.heard(client, slot_start, time):
                    survivors.append(client)
                else:
                    self._seek_slot(client, obj, time + 1.0)
            if not survivors:
                self._flush_schedules()
                return
        else:
            # rep: allow-client-loop — one bucket's members, not the population
            survivors = [member[2] for member in members]

        # phase 2 — one batched read-condition evaluation for the bucket;
        # under a staleness window the kernel validates member by member
        # through runtime.deliver instead, still one event per slot
        broadcast = self.state.broadcast_for(bucket.cycle)
        ok_list: Sequence[Optional[bool]]
        if kernel.staleness_window is not None:
            ok_list = [None] * len(survivors)
        elif len(survivors) > 1:
            ok_list = self._batch_validate(
                # rep: allow-client-loop — one bucket's survivors
                [client.validator for client in survivors], obj, broadcast.snapshot
            )
        else:
            ok_list = [survivors[0].validator.validate_read(obj, broadcast.snapshot)]

        # phase 3 — apply per-client consequences in issue order.  The
        # cache-less fast regime inlines a delivered read's think draw,
        # slot arithmetic and bucket append (_advance/_seek_slot without
        # the call overhead — at thousands of reads per wall-clock
        # millisecond, the dominant remaining cost); everything else is
        # the kernel's.  The oracle equivalence tests exercise both lanes.
        fast = self._fast
        offsets = self._flat_offsets
        buckets = self._buckets
        new_buckets = self._new_buckets
        cycle_bits = self._cycle_bits
        op_lambd = kernel.op_lambd
        restart_delay = kernel.restart_delay
        delay_first = kernel.config.delay_before_first_operation
        delivered = 0
        for ok, client in zip(ok_list, survivors):
            runtime = client.runtime
            if fast and client.cache is None:
                assert offsets is not None
                if ok:
                    delivered += 1
                    index = runtime.apply_read_ok_untraced()
                    if index >= client.txn_len:
                        start_time = self._complete(client, time)
                        if start_time is None:
                            continue
                        issue = start_time
                        if delay_first:
                            issue -= _log(1.0 - client.rng.random()) / op_lambd
                        next_obj = client.runtime.objects[0]
                    else:
                        issue = time - _log(1.0 - client.rng.random()) / op_lambd
                        next_obj = runtime.objects[index]
                else:
                    kernel.reject(client, time, obj)
                    issue = time + restart_delay
                    if delay_first:
                        issue -= _log(1.0 - client.rng.random()) / op_lambd
                    next_obj = runtime.objects[0]
                # _seek_slot, inlined (flat layout guaranteed by `fast`)
                cycle = int(issue // cycle_bits) + 1
                end = (cycle - 1) * cycle_bits + offsets[next_obj]
                if cycle > 1 and end - cycle_bits >= issue:
                    cycle -= 1
                    end -= cycle_bits
                elif end < issue:
                    cycle += 1
                    end += cycle_bits
                slot_bucket = buckets.get(end)
                if slot_bucket is None:
                    slot_bucket = _Bucket(next_obj, cycle)
                    buckets[end] = slot_bucket
                    new_buckets.append((end, partial(self._fire, end)))
                order = self._enqueue_order
                self._enqueue_order = order + 1
                slot_bucket.members.append((issue, order, client))
                continue
            if not kernel.receive(client, broadcast, obj, time, ok):
                self._advance(client, time + restart_delay, first=True)
            elif not runtime.is_done:
                self._advance(client, time, first=False)
            else:
                start_time = self._complete(client, time)
                if start_time is not None:
                    self._advance(client, start_time, first=True)
        metrics.reads_delivered += delivered
        metrics.listening_bits += self._slot_bits * len(survivors)
        self._flush_schedules()

    # ------------------------------------------------------------------
    # update transactions: the coalesced uplink chain
    # ------------------------------------------------------------------
    def _uplink_arrival(self, client: ClientState) -> None:
        """The submission reaches the server — or doesn't.

        A scheduled callback at the instant the per-process client's
        uplink wait ends.  The kernel decides the outcome; a lost copy
        is resubmitted after its backoff, and a verdict's consequences —
        known immediately, since they touch only private state — are
        computed inline at ``arrival + half_rtt``.
        """
        now = self.sim.now
        outcome, wait = self.kernel.uplink_arrival(client, now)
        if outcome == RETRY:
            self.sim.schedule(
                now + wait + self.kernel.half_rtt, partial(self._uplink_arrival, client)
            )
            return
        # the verdict's arrival, or the instant the retries ran out
        at_time = now + wait
        if outcome == COMMITTED:
            start_time = self._next_txn(client, self.kernel.commit(client, at_time))
            if start_time is not None:
                self._advance(client, start_time, first=True)
        else:
            self._advance(client, at_time + self.kernel.restart_delay, first=True)
        self._flush_schedules()
