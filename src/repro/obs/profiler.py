"""Wall-clock phase timing for the harness, outside the deterministic core.

The simulator itself may never read the wall clock (REP001/REP010); the
harness around it — shard setup, primary shard, merge, drive —
legitimately wants to know where real seconds go.  ``PhaseProfiler``
accumulates ``perf_counter`` deltas per named phase and renders to a
plain dict for BENCH_scaling.json points and ``SimulationResult.profile``.
"""

import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase.

    Phases may repeat (e.g. a ``shards`` phase entered once per
    sequential worker); durations accumulate.  Not thread-safe — one
    profiler per orchestrating call.
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed

    def as_dict(self) -> Dict[str, float]:
        """Phase → seconds, rounded to microseconds, insertion order."""
        return {name: round(sec, 6) for name, sec in self._seconds.items()}
