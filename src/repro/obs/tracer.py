"""Sim-time span tracing with a bounded ring buffer.

A :class:`Span` is a flat record stamped entirely in *simulation time*
(bit units) — never wall clock — so traced runs are as deterministic as
untraced ones.  Spans are emitted into a :class:`Tracer`, a fixed-size
ring buffer: when full, the oldest spans are overwritten and counted in
``dropped`` rather than growing memory without bound.

The :data:`NULL_TRACER` singleton (an instance of :class:`NullTracer`,
a ``Tracer`` subclass with ``enabled = False`` and a no-op ``emit``) is
the default everywhere.  Hot paths guard bookkeeping writes with
``tracer.enabled`` — a plain class-attribute read — so disabled runs pay
no allocation and no per-event branch beyond that single check.

Span vocabulary (``track`` / ``name`` / ``status``):

========  =============  ===========================================
track     name           meaning
========  =============  ===========================================
client    attempt        one read-phase attempt; status ``ok`` or an
                         abort cause (``conflict``/``staleness``/
                         ``crash``/``uplink``)
client    txn            whole transaction, first submit to commit
client    uplink         update submission round-trip; status ``ok``,
                         ``conflict``, or an uplink-abort cause
client    uplink.retry   instant event: one lost submission retried
timeline  cycle          one broadcast image installed on the air
timeline  server.commit  instant event: server txn commit (``ok``) or
                         loss to a crash (``lost``)
timeline  crash          crash/recovery window, outage start to
                         recovery complete
========  =============  ===========================================

``track_id`` is the client id on the ``client`` track; on ``timeline``
it selects a lane: 0 = broadcast, 1 = server, 2 = recovery.
"""

from typing import List, NamedTuple, Sequence

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "canonical_spans",
]


class Span(NamedTuple):
    """One traced interval (or instant, when ``start == end``).

    Field order is load-bearing: sorting spans as plain tuples yields
    the canonical (start, end, track, track_id, name, status, detail)
    order used for cross-shard determinism comparisons.
    """

    start: float
    end: float
    track: str
    track_id: int
    name: str
    status: str
    detail: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Bounded ring buffer of spans.

    ``enabled`` is a class attribute so the hot-path guard
    ``tracer.enabled`` costs one attribute lookup and no per-instance
    storage; :class:`NullTracer` overrides it to ``False``.
    """

    enabled = True

    __slots__ = ("capacity", "_buffer", "_head", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: List[Span] = []
        self._head = 0
        self.dropped = 0

    def emit(
        self,
        start: float,
        end: float,
        track: str,
        track_id: int,
        name: str,
        status: str,
        detail: str,
    ) -> None:
        span = Span(start, end, track, track_id, name, status, detail)
        buffer = self._buffer
        if len(buffer) < self.capacity:
            buffer.append(span)
        else:
            buffer[self._head] = span
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._buffer)

    def export(self) -> List[Span]:
        """Spans in emission order (oldest surviving span first)."""
        if self._head == 0:
            return list(self._buffer)
        return self._buffer[self._head :] + self._buffer[: self._head]


class NullTracer(Tracer):
    """Disabled tracer: ``enabled`` is False and ``emit`` is a no-op.

    A real subclass (rather than a sentinel of another type) so every
    ``tracer: Tracer`` annotation stays honest.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(1)

    def emit(
        self,
        start: float,
        end: float,
        track: str,
        track_id: int,
        name: str,
        status: str,
        detail: str,
    ) -> None:
        return None


NULL_TRACER = NullTracer()


def canonical_spans(
    shard_spans: Sequence[Sequence[Span]], upto: float
) -> List[Span]:
    """Merge per-shard span streams into one canonical ordering.

    Spans that *start* after ``upto`` (the merged stop time) are
    truncated, so span counts reconcile with counters recorded up to
    that stop.  Plain tuple sort gives a total order independent of
    shard count and emission interleaving.
    """
    merged = [
        span
        for spans in shard_spans
        for span in spans
        if span.start <= upto
    ]
    merged.sort()
    return merged
