"""Counter/gauge/histogram telemetry registry.

Generalises the ad-hoc scalar tallies on ``MetricsCollector`` into a
named instrument registry.  Instruments are created on first use and
kept in insertion order; :meth:`TelemetryRegistry.merge_from` combines
registries deterministically when callers merge in shard-index order —
the same contract ``MetricsCollector.merge_from`` honours.

:func:`registry_from_result` derives a registry from a finished
``SimulationResult``: because it reads the *merged* collector (whose
counters already crossed the shard boundaries via ``merge_from``), the
registry inherits shard-order correctness for free.
"""

from typing import Any, Dict, Iterable, List

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "registry_from_result",
]


class Counter:
    """Monotonically increasing tally; merged by summation."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += delta

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time level; merged by maximum (high-water mark)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Power-of-two bucketed distribution; merged by adding counts.

    Bucket ``k`` counts observations in ``(2**(k-1), 2**k]``; bucket 0
    holds everything ``<= 1`` including zeros.  Exponential buckets keep
    the instrument O(log range) regardless of sample count, so mega-runs
    can afford one observation per commit.
    """

    __slots__ = ("name", "counts", "total", "sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        bucket = 0
        upper = 1.0
        while value > upper:
            upper *= 2.0
            bucket += 1
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge_from(self, other: "Histogram") -> None:
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.total += other.total
        self.sum += other.sum

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "total": self.total,
            "sum": self.sum,
            "buckets": {str(k): self.counts[k] for k in sorted(self.counts)},
        }


class TelemetryRegistry:
    """Named instruments, created on first use, in insertion order."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors ---------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- combination ---------------------------------------------------
    def merge_from(self, other: "TelemetryRegistry") -> None:
        """Fold another registry in: counters sum, gauges take the max,
        histogram buckets add.  Callers merge in shard-index order so
        instrument creation order — and every rendered view — is
        deterministic."""
        for name, counter in other._counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other._gauges.items():
            mine = self.gauge(name)
            mine.value = max(mine.value, gauge.value)
        for name, hist in other._histograms.items():
            self.histogram(name).merge_from(hist)

    # -- views ----------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.as_dict() for n, h in self._histograms.items()},
        }

    def render(self) -> str:
        """Plain-text table for terminal output."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            width = max(len(n) for n in self._counters)
            for name, counter in self._counters.items():
                value = counter.value
                shown = int(value) if value == int(value) else value
                lines.append(f"  {name:<{width}}  {shown}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self._gauges)
            for name, gauge in self._gauges.items():
                lines.append(f"  {name:<{width}}  {gauge.value:g}")
        if self._histograms:
            lines.append("histograms:")
            for name, hist in self._histograms.items():
                lines.append(
                    f"  {name}: n={hist.total} mean={hist.mean:.1f} "
                    f"buckets={{{', '.join(f'2^{k}: {v}' for k, v in sorted(hist.counts.items()))}}}"
                )
        return "\n".join(lines)


def registry_from_result(result: Any) -> TelemetryRegistry:
    """Build a registry from a finished ``SimulationResult``.

    Counters mirror every ``MetricsCollector._COUNTER_FIELDS`` tally
    plus ``commits``; gauges carry run extent (stop time, kernel
    events); histograms bucket per-commit response times and restart
    counts straight from the array accumulators (``keep_samples`` is
    irrelevant — no sample objects are materialised).
    """
    registry = TelemetryRegistry()
    metrics = result.metrics
    registry.counter("commits").inc(metrics.commit_count)
    for name in type(metrics)._COUNTER_FIELDS:
        registry.counter(name).inc(float(getattr(metrics, name)))
    registry.gauge("sim_time").set(float(result.sim_time))
    registry.gauge("events").set(float(result.events))
    count = metrics._count
    if count:
        responses = (
            metrics._commit_times[:count] - metrics._submit_times[:count]
        ).tolist()
        registry.histogram("response_time_bits").observe_many(responses)
        registry.histogram("restarts").observe_many(
            metrics._restart_counts[:count].tolist()
        )
    return registry
