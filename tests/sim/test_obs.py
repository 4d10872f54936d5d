"""Observability tests (repro.obs; docs/OBSERVABILITY.md).

Three contracts, in increasing order of subtlety:

* **Disabled tracing is free and invisible.**  Untraced runs must be
  bit-identical to the pre-observability code — pinned here as sha256
  digests of the full observable signature, captured from the commit
  preceding the obs subsystem.

* **Enabled tracing is deterministic and non-perturbing.**  A traced
  run's metrics equal the untraced run's exactly, and the canonical
  span stream is identical across executors and shard counts — the
  same bit-identity contract the metrics already honour, extended to
  spans.

* **Spans reconcile with counters.**  Span counts are not decorative:
  txn spans == commits, per-cause attempt aborts == abort counters,
  cycle spans == cycles_broadcast, all on a faulted sharded run.
"""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    TelemetryRegistry,
    Tracer,
    canonical_spans,
    chrome_trace,
    registry_from_result,
    spans_to_jsonl,
)
from repro.sim import (
    DozeInterval,
    FaultPlan,
    MetricsCollector,
    ServerCrash,
    SimulationConfig,
    run_simulation,
)
from repro.sim.shard import run_sharded

BASE = dict(
    protocol="f-matrix",
    num_objects=40,
    object_size_bits=1024,
    timestamp_bits=4,
    modulo_timestamps=True,
    num_clients=6,
    num_update_clients=2,
    client_update_fraction=0.3,
    num_client_transactions=8,
    client_txn_length=4,
    seed=7,
)


def fault_plan(cb):
    return FaultPlan(
        doze=(DozeInterval(1, 5 * cb, 3 * cb),),
        crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
        uplink_loss_probability=0.3,
    )


def make_config(**overrides):
    params = dict(BASE)
    params.update(overrides)
    if "faults" not in params:
        cb = SimulationConfig(**BASE).cycle_bits
        params["faults"] = fault_plan(cb)
    return SimulationConfig(**params)


def run_config(config, workers=0):
    if config.shards > 1:
        return run_sharded(config, workers=workers)
    return run_simulation(config)


def signature_digest(result):
    """sha256 over the full observable signature (see test_faults)."""
    import hashlib

    m = result.metrics
    payload = repr(
        (
            sorted(
                (s.tid, s.submit_time, s.commit_time, s.restarts)
                for s in m.samples
            ),
            result.sim_time,
            result.events,
            m.listening_bits,
            m.reads_delivered,
            m.reads_rejected,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def metrics_signature(result):
    m = result.metrics
    return {
        "commits": sorted(
            (s.tid, s.submit_time, s.commit_time, s.restarts) for s in m.samples
        ),
        "sim_time": result.sim_time,
        "counters": {
            name: getattr(m, name) for name in MetricsCollector._COUNTER_FIELDS
        },
    }


#: digests of untraced runs, keyed (executor, shards, timeline path);
#: the 1-shard digests were captured from the commit before the obs
#: subsystem landed (c1142d4), the 2-shard one from the last commit
#: that still had a second timeline path — tracing off must stay
#: bit-identical
PINNED = {
    ("process", 1, "recompute"): (
        "cb4c98cefb30f5d61da912f0193cbc96e4646f7bb9df54cb0f6da743ac12e920"
    ),
    ("cohort", 1, "recompute"): (
        "27bf43e096fcecede55a47fe340c9cdd04e9bdccb72d7946b9cd38df88e9e6c2"
    ),
    ("cohort", 2, "recompute"): (
        "2c2e399be55d20a9eaa55cd6e4fed676fd2e5bdef2587085f27b544dd1dd37b7"
    ),
}


class TestTracerUnit:
    def test_ring_buffer_overwrites_and_counts_drops(self):
        tracer = Tracer(3)
        for k in range(5):
            tracer.emit(float(k), float(k), "client", 0, "attempt", "ok", str(k))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        exported = tracer.export()
        assert [s.detail for s in exported] == ["2", "3", "4"]  # oldest first

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(0)

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.emit(0.0, 1.0, "client", 0, "attempt", "ok", "t")
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.export() == []
        assert Tracer.enabled is True  # class-attribute guard, one lookup

    def test_canonical_spans_sorts_and_truncates(self):
        a = Span(5.0, 6.0, "client", 1, "attempt", "ok", "x")
        b = Span(1.0, 2.0, "client", 0, "attempt", "ok", "y")
        late = Span(10.5, 11.0, "timeline", 0, "cycle", "ok", "9")
        merged = canonical_spans([[a, late], [b]], upto=10.0)
        assert merged == [b, a]  # sorted, the post-horizon span dropped

    def test_config_rejects_bad_trace_buffer(self):
        with pytest.raises(ValueError, match="trace_buffer"):
            SimulationConfig(tracing=True, trace_buffer=0)


class TestRegistryUnit:
    def test_counter_monotonic(self):
        reg = TelemetryRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        with pytest.raises(ValueError, match="decrease"):
            c.inc(-1.0)
        assert reg.counter("x") is c  # get-or-create returns the instance

    def test_histogram_power_of_two_buckets(self):
        reg = TelemetryRegistry()
        h = reg.histogram("h")
        h.observe_many([0.0, 1.0, 1.5, 8.0, 9.0])
        # bucket k covers (2^(k-1), 2^k]; bucket 0 holds <= 1
        assert h.counts == {0: 2, 1: 1, 3: 1, 4: 1}
        assert h.total == 5
        assert h.mean == pytest.approx(19.5 / 5)

    def test_merge_sums_counters_maxes_gauges_adds_buckets(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("t").set(5.0)
        b.gauge("t").set(4.0)
        a.histogram("h").observe(3.0)
        b.histogram("h").observe(3.0)
        a.merge_from(b)
        assert a.counter("n").value == 5.0
        assert a.gauge("t").value == 5.0
        assert a.histogram("h").counts == {2: 2}

    def test_registry_from_result_subsumes_metrics(self):
        result = run_config(make_config(tracing=True))
        registry = registry_from_result(result)
        payload = registry.as_dict()
        m = result.metrics
        assert payload["counters"]["commits"] == m.commit_count
        for name in MetricsCollector._COUNTER_FIELDS:
            assert payload["counters"][name] == float(getattr(m, name))
        assert payload["gauges"]["sim_time"] == result.sim_time
        # histograms observe every commit straight off the arrays
        assert payload["histograms"]["response_time_bits"]["total"] == (
            m.commit_count
        )
        assert result.telemetry().as_dict() == payload  # the result-side hook


class TestUntracedBitIdentity:
    @pytest.mark.parametrize("executor,shards,mode", sorted(PINNED))
    def test_untraced_signature_pinned(self, executor, shards, mode):
        config = make_config(client_executor=executor, shards=shards)
        assert config.tracing is False  # the default stays off
        result = run_config(config)
        assert signature_digest(result) == PINNED[(executor, shards, mode)]
        assert result.spans is None and result.spans_dropped == 0


class TestTracedDeterminism:
    def test_traced_metrics_equal_untraced(self):
        for executor, shards, mode in sorted(PINNED):
            config = make_config(
                client_executor=executor, shards=shards, tracing=True
            )
            result = run_config(config)
            assert signature_digest(result) == PINNED[(executor, shards, mode)]

    def test_span_stream_identical_across_shards(self):
        reference = None
        for shards in (1, 2, 3):
            config = make_config(
                client_executor="cohort", shards=shards, tracing=True
            )
            result = run_config(config)
            assert result.spans, f"no spans at shards={shards}"
            if reference is None:
                reference = result.spans
            else:
                assert result.spans == reference, (
                    f"span stream diverged at shards={shards}"
                )

    def test_span_stream_identical_across_executors_fault_free(self):
        """process vs cohort, fault-free: one span stream."""
        streams = {}
        for executor in ("process", "cohort"):
            config = make_config(
                client_executor=executor, faults=None, tracing=True
            )
            streams[executor] = run_config(config).spans
        assert streams["process"]
        assert streams["cohort"] == streams["process"]

    def test_traced_process_vs_cohort_under_faults(self):
        process = run_config(make_config(tracing=True))
        cohort = run_config(
            make_config(client_executor="cohort", tracing=True)
        )
        assert metrics_signature(process) == metrics_signature(cohort)
        assert process.spans == cohort.spans


class TestReconciliation:
    @pytest.fixture(scope="class")
    def traced_sharded(self):
        config = make_config(client_executor="cohort", shards=2, tracing=True)
        return run_config(config)

    def test_span_counts_reconcile_with_metrics(self, traced_sharded):
        result = traced_sharded
        m = result.metrics
        spans = result.spans
        assert result.spans_dropped == 0
        txns = [s for s in spans if s.track == "client" and s.name == "txn"]
        assert len(txns) == m.commit_count
        attempts = [
            s for s in spans if s.track == "client" and s.name == "attempt"
        ]
        ok = [s for s in attempts if s.status == "ok"]
        assert len(ok) == m.commit_count
        by_cause = {}
        for s in attempts:
            if s.status != "ok":
                by_cause[s.status] = by_cause.get(s.status, 0) + 1
        for cause in ("conflict", "staleness", "crash", "uplink"):
            assert by_cause.get(cause, 0) == getattr(m, f"aborts_{cause}"), cause
        cycles = [
            s for s in spans if s.track == "timeline" and s.name == "cycle"
        ]
        assert len(cycles) == m.cycles_broadcast
        commits = [
            s
            for s in spans
            if s.track == "timeline"
            and s.name == "server.commit"
            and s.status == "ok"
        ]
        assert len(commits) == m.server_commits
        crashes = [
            s for s in spans if s.track == "timeline" and s.name == "crash"
        ]
        assert len(crashes) == m.server_crashes
        retries = [s for s in spans if s.name == "uplink.retry"]
        assert len(retries) == m.uplink_retries

    def test_chrome_trace_document_shape(self, traced_sharded):
        result = traced_sharded
        registry = result.telemetry()
        document = chrome_trace(
            result.shard_spans,
            counters=registry.as_dict()["counters"],
            profile=result.profile,
        )
        # must survive a JSON round trip (the Perfetto contract)
        document = json.loads(json.dumps(document))
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        pids = {e["pid"] for e in events}
        assert pids == {0, 1}  # one process lane per shard
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"shard 0 (timeline)", "shard 1"}
        for event in events:
            if event["ph"] == "X":
                assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
                assert event["dur"] >= 0
        # timeline lanes live only in the primary shard's process
        timeline_pids = {e["pid"] for e in events if e.get("cat") == "timeline"}
        assert timeline_pids == {0}
        assert document["otherData"]["counters"]["commits"] == (
            result.metrics.commit_count
        )
        assert "primary" in document["otherData"]["profile_seconds"]

    def test_spans_jsonl_round_trips(self, traced_sharded):
        lines = spans_to_jsonl(traced_sharded.spans).splitlines()
        assert len(lines) == len(traced_sharded.spans)
        rebuilt = [Span(**json.loads(line)) for line in lines]
        assert rebuilt == traced_sharded.spans

    def test_profile_covers_the_shard_phases(self, traced_sharded):
        profile = traced_sharded.profile
        assert profile is not None
        assert {"primary", "shards", "merge", "drive"} <= set(profile)
        assert all(v >= 0 for v in profile.values())
