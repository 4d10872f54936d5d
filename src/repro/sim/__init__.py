"""Discrete-event simulation of the broadcast-disk system (Sec. 4 setup)."""

from .batch import ReplicatedResult, replicate, replication_seeds
from .cohort import CohortClient, CohortExecutor
from .config import KILOBYTE_BITS, SimulationConfig
from .engine import Process, Simulator, Timeout, WaitUntil, Waive
from .faults import DozeInterval, FaultPlan, FaultRuntime, ServerCrash
from .metrics import (
    MetricsCollector,
    SummaryStat,
    TransactionSample,
    batch_means,
    summarize,
)
from .shard import ShardExecutionError, reader_slices, run_sharded
from .simulation import (
    BroadcastSimulation,
    ShardSlice,
    SimulationResult,
    run_simulation,
)
from .trace import ClientCommitRecord, TraceRecorder

__all__ = [
    "SimulationConfig",
    "KILOBYTE_BITS",
    "Simulator",
    "Process",
    "Timeout",
    "WaitUntil",
    "Waive",
    "MetricsCollector",
    "SummaryStat",
    "TransactionSample",
    "summarize",
    "batch_means",
    "replicate",
    "ReplicatedResult",
    "replication_seeds",
    "BroadcastSimulation",
    "SimulationResult",
    "run_simulation",
    "ShardSlice",
    "run_sharded",
    "reader_slices",
    "ShardExecutionError",
    "CohortClient",
    "CohortExecutor",
    "TraceRecorder",
    "ClientCommitRecord",
    "FaultPlan",
    "FaultRuntime",
    "DozeInterval",
    "ServerCrash",
]
