"""Outside-in span ledger for the traced run.

The traced run measures each layer from the benchmark's own code: it
replaces a layer's public entry points with timing wrappers *where the
callers look them up* (the class attribute for methods; the importing
module's global for functions bound by name), runs the workload, and
puts every original object back.  Nothing under ``src/`` is edited.

A wrapper is a span: its self time is its duration minus the time its
nested wrapped calls took.  The sum of all self times is the wall the
spans cover; whatever the traced wall holds beyond that is glue no
layer span covers (``bench.unattributed_share``).

Shard workers are forked from a process whose entry points are already
wrapped, so their spans stay in the worker: the ledger sees the primary
shard's spans, and the parent's wait for the workers comes from the
run's own phase profile (``shard.wait_s``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, DefaultDict, Iterator, List, Tuple


def layer_targets() -> List[Tuple[str, Any, str]]:
    """``(span, owner, attribute)`` for every wrapped entry point."""
    import repro.analysis as analysis
    from repro.analysis import consistency
    from repro.client.cache import QuasiCache
    from repro.core.control_matrix import ControlMatrix
    from repro.core.group_matrix import GroupedControlState, LastWriteVector
    from repro.core.validators import ReadValidator
    from repro.server.server import BroadcastServer
    from repro.server.workload import ServerWorkload
    from repro.sim import cohort
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultRuntime
    from repro.sim.metrics import MetricsCollector
    from repro.sim.simulation import BroadcastSimulation
    from repro.sim.trace import TraceRecorder

    targets: List[Tuple[str, Any, str]] = [
        ("sim.run", Simulator, "run"),
        ("sim.build", BroadcastSimulation, "__init__"),
        ("sim.build", BroadcastSimulation, "execute"),
        ("server.commit", BroadcastServer, "commit_update"),
        ("server.begin_cycle", BroadcastServer, "begin_cycle"),
        ("server.submit_update", BroadcastServer, "submit_client_update"),
        # client transaction draws stay in sim.self_s with the client logic
        ("server.workload", ServerWorkload, "next_transaction"),
        ("core.apply_commit", ControlMatrix, "apply_commit"),
        ("core.apply_commit", LastWriteVector, "apply_commit"),
        ("core.apply_commit", GroupedControlState, "apply_commit"),
        # the cohort executor binds these module globals at construction
        ("validators.batch", cohort, "validate_read_batch"),
        ("validators.batch", cohort, "validate_read_batch_inorder"),
        ("cache.lookup", QuasiCache, "lookup"),
        ("cache.insert", QuasiCache, "insert"),
        ("faults.slot_heard", FaultRuntime, "slot_heard"),
        ("faults.doze_wake", FaultRuntime, "doze_wake"),
        ("faults.uplink_lost", FaultRuntime, "uplink_lost"),
        ("metrics.record_commit", MetricsCollector, "record_commit"),
        ("metrics.record_abort", MetricsCollector, "record_abort"),
        ("metrics.merge_from", MetricsCollector, "merge_from"),
        ("metrics.summary", MetricsCollector, "response_time"),
        ("metrics.summary", MetricsCollector, "restart_ratio"),
        # BroadcastSimulation.run imports the auditor from the package
        # at call time; the benchmark calls the certifier on its module
        ("analysis.audit", analysis, "audit_simulation"),
        ("analysis.history", TraceRecorder, "transactional_history"),
        ("analysis.certify", consistency, "certify_update_consistency"),
    ]
    # every protocol's validator overrides validate_read
    pending = [ReadValidator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "validate_read" in vars(cls):
            targets.append(("validators.read", cls, "validate_read"))
    return targets


class Ledger:
    """Calls and self seconds per span name, accumulated across runs."""

    def __init__(self) -> None:
        self.calls: DefaultDict[str, int] = defaultdict(int)
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        #: child-time accumulators; the bottom entry sums top-level spans
        self._children: List[float] = [0.0]
        self._originals: List[Tuple[Any, str, Any]] = []

    @property
    def covered_s(self) -> float:
        """Wall seconds inside some span (the sum of all self times)."""
        return self._children[0]

    def _wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[span] += elapsed - children.pop()
                children[-1] += elapsed
                calls[span] += 1

        return wrapper

    @contextmanager
    def installed(self, targets: List[Tuple[str, Any, str]]) -> Iterator["Ledger"]:
        """Wrap every target for the duration of the block, then restore
        the original objects (also when the block raises)."""
        try:
            for span, owner, attr in targets:
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)
