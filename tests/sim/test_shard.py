"""Sharded execution tests (repro.sim.shard).

The unsharded run is the semantics oracle: for every configuration,
partitioning the read-only population over shards must change **nothing
observable**:
same commit multiset, same counters, same listening bits, same final
clock.  A hypothesis property drives the equivalence across seeds,
shard counts, protocols, and mixed read/update workloads; deterministic
tests pin the slicing arithmetic and the failure modes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    MetricsCollector,
    ShardExecutionError,
    SimulationConfig,
    reader_slices,
    run_sharded,
    run_simulation,
)
from repro.sim.simulation import BroadcastSimulation, ShardSlice

SMALL = dict(
    num_objects=24,
    num_clients=8,
    num_client_transactions=4,
    client_txn_length=3,
    server_txn_length=5,
    object_size_bits=512,
    mean_inter_operation_delay=6000.0,
    mean_inter_transaction_delay=10000.0,
    server_txn_interval=40000.0,
)


def small_config(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return SimulationConfig(**params)


def signature(result):
    """Everything observable about a run, commit order normalised."""
    m = result.metrics
    return {
        "commits": sorted(
            (s.tid, s.submit_time, s.commit_time, s.restarts) for s in m.samples
        ),
        "counters": {
            name: getattr(m, name) for name in MetricsCollector._COUNTER_FIELDS
        },
        "sim_time": result.sim_time,
        "response_mean": result.response_time.mean,
        "restart_mean": result.restart_ratio.mean,
    }


# ----------------------------------------------------------------------
# the property: sharded ≡ shards=1, bit for bit
# ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 2, 3, 8]),
    protocol=st.sampled_from(["f-matrix", "r-matrix", "datacycle"]),
    mixed=st.booleans(),
)
def test_sharded_equals_unsharded(seed, shards, protocol, mixed):
    workload = (
        dict(client_update_fraction=0.3, num_update_clients=3) if mixed else {}
    )
    base = small_config(seed=seed, protocol=protocol, **workload)
    oracle = signature(run_simulation(base))
    sharded = signature(
        run_sharded(
            base.replace(client_executor="cohort", shards=shards), workers=0
        )
    )
    assert sharded == oracle


def test_sharded_with_real_process_pool():
    base = small_config(seed=5, protocol="f-matrix")
    oracle = signature(run_simulation(base))
    pooled = signature(
        run_sharded(
            base.replace(client_executor="cohort", shards=3), workers=2
        )
    )
    assert pooled == oracle


def test_run_simulation_dispatches_on_shards():
    base = small_config(seed=9, client_executor="cohort", shards=2)
    assert signature(run_simulation(base)) == signature(
        run_simulation(base.replace(shards=1))
    )


@pytest.mark.parametrize(
    "shape",
    [
        dict(
            seed=13,
            cache_currency_bound=300000.0,
            cache_capacity=16,
            broadcast_loss_probability=0.1,
        ),
        dict(seed=23, layout_kind="multi-disk", client_access_skew=0.5),
    ],
    ids=["cache-and-loss", "multi-disk"],
)
def test_sharded_matches_oracle_on_extension_shapes(shape):
    base = small_config(**shape)
    sharded = run_sharded(
        base.replace(client_executor="cohort", shards=2), workers=0
    )
    assert signature(sharded) == signature(run_simulation(base))


# ----------------------------------------------------------------------
# worker failures carry shard context
# ----------------------------------------------------------------------


def test_worker_failure_carries_shard_context(monkeypatch):
    import repro.sim.shard as shard_mod

    def boom(job):
        raise RuntimeError("worker exploded")

    monkeypatch.setattr(shard_mod, "_run_shard", boom)
    config = small_config(client_executor="cohort", shards=3)
    slices = reader_slices(config)
    with pytest.raises(ShardExecutionError) as excinfo:
        run_sharded(config, workers=0)
    err = excinfo.value
    assert err.shard_index == 1
    assert (err.reader_lo, err.reader_hi) == (
        slices[1].reader_lo,
        slices[1].reader_hi,
    )
    assert "readers [" in str(err)
    assert "worker exploded" in str(err)
    assert isinstance(err.__cause__, RuntimeError)


# ----------------------------------------------------------------------
# slicing arithmetic
# ----------------------------------------------------------------------


class TestReaderSlices:
    def test_partitions_are_contiguous_and_cover(self):
        config = small_config(num_clients=11, client_executor="cohort", shards=3)
        slices = reader_slices(config)
        assert [s.primary for s in slices] == [True, False, False]
        assert slices[0].reader_lo == 0
        assert slices[-1].reader_hi == 11
        for left, right in zip(slices, slices[1:]):
            assert left.reader_hi == right.reader_lo
        # near-even: sizes differ by at most one, larger ones first
        sizes = [s.num_readers for s in slices]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_updaters_replicated_on_every_slice(self):
        config = small_config(
            num_clients=10,
            client_executor="cohort",
            shards=2,
            client_update_fraction=0.5,
            num_update_clients=4,
        )
        slices = reader_slices(config)
        assert all(s.updaters == 4 for s in slices)
        assert slices[0].reader_lo == 4
        assert slices[-1].reader_hi == 10

    def test_shards_clamped_to_reader_count(self):
        config = small_config(num_clients=3, client_executor="cohort", shards=8)
        slices = reader_slices(config)
        assert len(slices) == 3

    def test_single_slice_when_no_readers(self):
        config = small_config(
            num_clients=4,
            client_executor="cohort",
            shards=4,
            client_update_fraction=0.5,
            num_update_clients=4,
        )
        slices = reader_slices(config)
        assert len(slices) == 1 and slices[0].primary


# ----------------------------------------------------------------------
# validation and guard rails
# ----------------------------------------------------------------------


class TestShardValidation:
    def test_process_executor_cannot_shard(self):
        with pytest.raises(ValueError, match="cohort"):
            small_config(shards=2)

    def test_updates_need_explicit_bound(self):
        with pytest.raises(ValueError, match="num_update_clients"):
            small_config(
                client_executor="cohort", shards=2, client_update_fraction=0.2
            )

    def test_audit_cannot_shard(self):
        with pytest.raises(ValueError, match="audit"):
            small_config(client_executor="cohort", shards=2, audit=True)

    def test_sharded_trace_refused(self):
        config = small_config(client_executor="cohort", shards=2)
        with pytest.raises(ValueError, match="trace"):
            run_sharded(config, collect_trace=True, workers=0)

    def test_sliced_simulation_refuses_trace(self):
        config = small_config(client_executor="cohort")
        slice_ = ShardSlice(updaters=0, reader_lo=0, reader_hi=4, primary=True)
        with pytest.raises(ValueError, match="shard"):
            BroadcastSimulation(config, collect_trace=True, slice_=slice_)
