"""The benchmark's workloads, their output signatures and the output check.

Every workload is a closed loop: each simulated client issues its next
transaction only after the previous one commits.  A workload is a tuple
of :class:`~repro.sim.SimulationConfig` built from the seed; one
*repetition* runs them back to back through the public API
(:func:`repro.sim.run_simulation`, plus
:func:`repro.analysis.consistency.certify_update_consistency` for
``audit``).  The program receives only the generated configs.

The simulator is deterministic, so a repetition's simulated statistics
are a pure function of the seed.  :func:`signature` collects them;
:func:`check` compares one repetition against a reference (the pinned
``reference.json`` for :data:`DEFAULT_SEED`, else the seed's first
repetition) and against invariants that hold for every seed.

Run ``python3 perfbench/workloads.py`` from the repository root to
re-pin ``reference.json`` after a change that is *meant* to alter the
simulated statistics.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.sim import (  # noqa: E402
    FaultPlan,
    ServerCrash,
    SimulationConfig,
    SimulationResult,
    run_simulation,
)

#: the seed whose signatures ``reference.json`` pins
DEFAULT_SEED = 42

#: protocols ``table1`` runs back to back (group-matrix with 16 groups)
TABLE1_PROTOCOLS = ("f-matrix", "r-matrix", "datacycle", "group-matrix")
#: protocols ``audit`` runs back to back, as the faults-smoke job does
AUDIT_PROTOCOLS = ("f-matrix", "r-matrix", "datacycle")

@dataclass(frozen=True)
class Size:
    """How much work one repetition does (``full`` is what ``run.py``
    measures; ``tiny`` is the warm-up and what the benchmark's own tests
    run)."""

    table1_txns: int
    crowd_clients: int
    mixed_clients: int
    audit_clients: int
    audit_txns: int
    #: independent audited runs per protocol and repetition
    audit_runs: int


SIZES = {
    "full": Size(
        table1_txns=300,
        crowd_clients=16_384,
        mixed_clients=4_096,
        audit_clients=16,
        audit_txns=4,
        audit_runs=6,
    ),
    "tiny": Size(
        table1_txns=10,
        crowd_clients=64,
        mixed_clients=64,
        audit_clients=8,
        audit_txns=2,
        audit_runs=1,
    ),
}


def _table1(seed: int, size: Size) -> Tuple[SimulationConfig, ...]:
    return tuple(
        SimulationConfig(
            protocol=protocol,
            num_groups=16 if protocol == "group-matrix" else 1,
            num_client_transactions=size.table1_txns,
            seed=seed,
        )
        for protocol in TABLE1_PROTOCOLS
    )


def _crowd(seed: int, size: Size) -> Tuple[SimulationConfig, ...]:
    # the dense broadcast of repro-bench's mega tier: few objects, short
    # cycles, think times far below the cycle length, so thousands of
    # clients wait on every slot
    return (
        SimulationConfig(
            protocol="f-matrix",
            num_objects=16,
            client_txn_length=12,
            mean_inter_operation_delay=4096.0,
            mean_inter_transaction_delay=16384.0,
            # an idle server: the run lasts about 2.3M bit-units, and with
            # the mega tier's 2M interval whether a commit (and the
            # restarts it causes) landed in it depended on the seed and
            # doubled the cost for some seeds
            server_txn_interval=1e12,
            num_clients=size.crowd_clients,
            num_client_transactions=2,
            client_executor="cohort",
            shards=2,
            keep_samples=False,
            seed=seed,
        ),
    )


def _faulted(
    seed: int, num_clients: int, txns: int, *, protocol: str = "f-matrix", audit: bool
) -> SimulationConfig:
    """The mixed-faults shape: updaters on a lossy uplink, quasi-caches
    smaller than the working set, radio loss, doze and one crash."""
    base = SimulationConfig(
        protocol=protocol,
        num_objects=100,
        object_size_bits=2 * 8 * 1024,
        # one server transaction per ~0.6 cycles: enough conflicts for a
        # restart ratio near 0.5, few enough that livelocked updaters
        # never set the run's end (which made the cost seed-dependent)
        server_txn_interval=1_000_000.0,
        num_clients=num_clients,
        num_client_transactions=txns,
        client_executor="cohort",
        num_update_clients=max(1, num_clients // 16),
        client_update_fraction=0.25,
        cache_currency_bound=4e6,
        cache_capacity=16,
        broadcast_loss_probability=0.02,
        seed=seed,
        audit=audit,
    )
    cycle = base.cycle_bits
    plan = FaultPlan.seeded(
        seed,
        num_clients=num_clients,
        horizon=20 * cycle,
        mean_time_between_dozes=8 * cycle,
        mean_doze_duration=0.5 * cycle,
        crashes=(ServerCrash(3 * cycle, 1.5 * cycle),),
        uplink_loss_probability=0.1,
    )
    return base.replace(faults=plan)


def _mixed_faults(seed: int, size: Size) -> Tuple[SimulationConfig, ...]:
    return (_faulted(seed, size.mixed_clients, 2, audit=False),)


def _audit(seed: int, size: Size) -> Tuple[SimulationConfig, ...]:
    # the audit's cost grows with the run's length, which the slowest
    # client sets; one 32-client run varied by a third between seeds,
    # the sum of six small independent runs per protocol by about 5%
    return tuple(
        _faulted(seed * 100 + run, size.audit_clients, size.audit_txns,
                 protocol=protocol, audit=True)
        for protocol in AUDIT_PROTOCOLS
        for run in range(size.audit_runs)
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Size], Tuple[SimulationConfig, ...]]

    def configs(self, seed: int, size: str = "full") -> Tuple[SimulationConfig, ...]:
        return self.build(seed, SIZES[size])


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table1", _table1),
        Workload("crowd", _crowd),
        Workload("mixed-faults", _mixed_faults),
        Workload("audit", _audit),
    )
}


@dataclass
class Repetition:
    """What one repetition ran and produced."""

    results: List[SimulationResult]
    #: host seconds per protocol, summed over its configs
    walls: Dict[str, float]
    #: per certified run (``audit``): the update-consistency verdict and
    #: the number of committed transactions in its history
    certified: Tuple[bool, ...] = ()
    history_txns: Tuple[int, ...] = ()


def run_repetition(
    configs: Tuple[SimulationConfig, ...], clock: Callable[[], float]
) -> Repetition:
    """Run every config once, and certify every audited one.

    The certifier is looked up on its module at call time, so a traced
    run sees the ledger's wrapper.
    """
    from repro.analysis import consistency

    rep = Repetition(results=[], walls={})
    for config in configs:
        start = clock()
        result = run_simulation(config)
        if config.audit:
            assert result.trace is not None and result.server is not None
            history = result.trace.transactional_history(result.server.database)
            report = consistency.certify_update_consistency(history)
            rep.certified += (report.ok,)
            rep.history_txns += (len(history.history.transaction_ids),)
        rep.walls[config.protocol] = (
            rep.walls.get(config.protocol, 0.0) + clock() - start
        )
        rep.results.append(result)
    return rep


def commits(rep: Repetition) -> int:
    return sum(result.metrics.commit_count for result in rep.results)


def run_key(config: SimulationConfig) -> str:
    """How signatures name one run of a repetition: ``<protocol>@<seed>``."""
    return f"{config.protocol}@{config.seed}"


def signature(rep: Repetition) -> Dict[str, Dict[str, object]]:
    """The simulated statistics of a repetition, keyed by :func:`run_key`.

    Commits, every metrics counter (reads delivered/rejected, listening
    bits, cache hits, abort causes, fault counters), the steady-state
    response-time and restart-ratio means and the stop time — plus the
    audit and certification verdicts where the run has them.
    """
    out: Dict[str, Dict[str, object]] = {}
    for index, result in enumerate(rep.results):
        metrics = result.metrics
        sig: Dict[str, object] = {
            "commits": metrics.commit_count,
            **metrics.counters(),
            "response_mean": result.response_time.mean,
            "restart_mean": result.restart_ratio.mean,
            "sim_time": result.sim_time,
        }
        if result.audit_report is not None:
            sig["audit_ok"] = result.audit_report.ok
            sig["audit_diagnostics"] = len(result.audit_report.diagnostics)
        if rep.certified:
            sig["certified"] = rep.certified[index]
            sig["history_txns"] = rep.history_txns[index]
        out[run_key(result.config)] = sig
    return out


def invariant_problems(
    configs: Tuple[SimulationConfig, ...], sig: Dict[str, Dict[str, object]]
) -> List[str]:
    """Seed-independent checks: every client finishes every transaction
    (closed loop), and audited runs are clean and certified."""
    problems: List[str] = []
    for config in configs:
        key = run_key(config)
        got = sig.get(key)
        if got is None:
            problems.append(f"{key}: no result")
            continue
        want = config.num_clients * config.num_client_transactions
        if got["commits"] != want:
            problems.append(f"{key}: {got['commits']} commits, want {want}")
        if config.audit and not (got.get("audit_ok") and got.get("certified")):
            problems.append(f"{key}: audit or certification not clean")
    return problems


def check(
    sig: Dict[str, Dict[str, object]],
    reference: Optional[Dict[str, Dict[str, object]]],
) -> List[str]:
    """Every field that differs from ``reference`` (``None``: no check)."""
    if reference is None:
        return []
    problems: List[str] = []
    for run in sorted(set(sig) | set(reference)):
        got, want = sig.get(run, {}), reference.get(run, {})
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                problems.append(
                    f"{run}.{key}: {got.get(key)!r} != reference {want.get(key)!r}"
                )
    return problems


def pinned_reference(name: str, seed: int) -> Optional[Dict[str, Dict[str, object]]]:
    """The pinned signature for ``seed`` (only :data:`DEFAULT_SEED` has one)."""
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(REFERENCE_PATH.read_text())
    return pinned[name]


def _pin() -> None:
    import time

    pinned = {}
    for name, workload in WORKLOADS.items():
        configs = workload.configs(DEFAULT_SEED)
        sig = signature(run_repetition(configs, time.perf_counter))
        problems = invariant_problems(configs, sig)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        pinned[name] = sig
    REFERENCE_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _pin()
