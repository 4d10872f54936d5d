"""Client substrate: transaction runtimes (read-only and update), the
quasi-cache for weak currency requirements, and the transaction kernel
every simulated client runs on."""

from .cache import CacheEntry, QuasiCache
from .kernel import ClientKernel, ClientState
from .session import ClientSession, ConsistencyAbort, SessionTransaction
from .runtime import (
    ClientUpdateTransactionRuntime,
    ReadOnlyTransactionRuntime,
    ReadOutcome,
    TransactionAborted,
)

__all__ = [
    "ReadOnlyTransactionRuntime",
    "ClientUpdateTransactionRuntime",
    "ReadOutcome",
    "TransactionAborted",
    "QuasiCache",
    "CacheEntry",
    "ClientSession",
    "SessionTransaction",
    "ConsistencyAbort",
    "ClientKernel",
    "ClientState",
]
