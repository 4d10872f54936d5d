"""Fault-injection tests (repro.sim.faults; docs/FAULTS.md).

Covers the plan's validation rules, the zero-fault bit-identity
guarantee, the doze/staleness guard under modulo timestamps, mid-run
server crash + recovery, uplink loss with retry/backoff, and the cohort
executor's bit-identical handling of faulty plans, sharded or not.
"""

import pytest

from repro.sim import (
    DozeInterval,
    FaultPlan,
    FaultRuntime,
    MetricsCollector,
    ServerCrash,
    SimulationConfig,
    run_simulation,
)

FAULTY = dict(
    protocol="f-matrix",
    num_objects=40,
    object_size_bits=1024,
    timestamp_bits=4,
    modulo_timestamps=True,
    num_clients=3,
    num_client_transactions=10,
    client_txn_length=4,
    seed=7,
)


def faulty_config(**overrides):
    params = dict(FAULTY)
    params.update(overrides)
    return SimulationConfig(**params)


def signature(result):
    """Everything observable about a run (commit order normalised)."""
    m = result.metrics
    return {
        "commits": sorted(
            (s.tid, s.submit_time, s.commit_time, s.restarts) for s in m.samples
        ),
        "sim_time": result.sim_time,
        "events": result.events,
        "listening_bits": m.listening_bits,
        "reads": (m.reads_delivered, m.reads_rejected),
    }


class TestDozeIntervalValidation:
    def test_negative_client_rejected(self):
        with pytest.raises(ValueError, match="client"):
            DozeInterval(-1, 0.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            DozeInterval(0, -1.0, 1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            DozeInterval(0, 0.0, 0.0)

    def test_end_property(self):
        assert DozeInterval(0, 10.0, 5.0).end == 15.0


class TestServerCrashValidation:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="crash time"):
            ServerCrash(0.0, 1.0)

    def test_nonpositive_downtime_rejected(self):
        with pytest.raises(ValueError, match="downtime"):
            ServerCrash(1.0, 0.0)


class TestFaultPlanValidation:
    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop

    def test_any_fault_breaks_noop(self):
        assert not FaultPlan(doze=(DozeInterval(0, 0.0, 1.0),)).is_noop
        assert not FaultPlan(crashes=(ServerCrash(1.0, 1.0),)).is_noop
        assert not FaultPlan(uplink_loss_probability=0.1).is_noop

    def test_overlapping_doze_same_client_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(
                doze=(DozeInterval(0, 0.0, 10.0), DozeInterval(0, 5.0, 10.0))
            )

    def test_overlapping_doze_different_clients_allowed(self):
        plan = FaultPlan(
            doze=(DozeInterval(0, 0.0, 10.0), DozeInterval(1, 5.0, 10.0))
        )
        assert plan.max_doze_client == 1

    def test_overlapping_crashes_rejected(self):
        with pytest.raises(ValueError, match="crashes overlap"):
            FaultPlan(crashes=(ServerCrash(1.0, 5.0), ServerCrash(3.0, 5.0)))

    def test_crashes_sorted_by_time(self):
        plan = FaultPlan(crashes=(ServerCrash(9.0, 1.0), ServerCrash(2.0, 1.0)))
        assert [c.time for c in plan.crashes] == [2.0, 9.0]

    def test_uplink_knob_bounds(self):
        with pytest.raises(ValueError, match="uplink_loss_probability"):
            FaultPlan(uplink_loss_probability=1.0)
        with pytest.raises(ValueError, match="uplink_max_retries"):
            FaultPlan(uplink_max_retries=-1)
        with pytest.raises(ValueError, match="uplink_timeout"):
            FaultPlan(uplink_timeout=0.0)
        with pytest.raises(ValueError, match="uplink_backoff"):
            FaultPlan(uplink_backoff=0.5)

    def test_seeded_is_deterministic(self):
        kwargs = dict(
            num_clients=4,
            horizon=1_000_000.0,
            mean_time_between_dozes=100_000.0,
            mean_doze_duration=50_000.0,
        )
        assert FaultPlan.seeded(11, **kwargs) == FaultPlan.seeded(11, **kwargs)
        assert FaultPlan.seeded(11, **kwargs) != FaultPlan.seeded(12, **kwargs)

    def test_seeded_respects_horizon_and_clients(self):
        plan = FaultPlan.seeded(
            3,
            num_clients=2,
            horizon=500_000.0,
            mean_time_between_dozes=50_000.0,
            mean_doze_duration=20_000.0,
        )
        assert plan.doze  # the means make dozing near-certain
        assert plan.max_doze_client < 2
        assert all(iv.start < 500_000.0 for iv in plan.doze)

    def test_seeded_zero_means_disable_doze(self):
        assert FaultPlan.seeded(3, num_clients=2, horizon=1000.0).is_noop


class TestConfigIntegration:
    def test_faults_must_be_a_plan(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            faulty_config(faults={"doze": ()})

    def test_doze_client_out_of_range_rejected(self):
        plan = FaultPlan(doze=(DozeInterval(5, 0.0, 1.0),))
        with pytest.raises(ValueError, match="client 5"):
            faulty_config(num_clients=3, faults=plan)

    def test_cohort_executor_accepts_faulty_plan(self):
        # PR 3 refused faults in the batched path; lifted since —
        # TestCohortFaultEquivalence holds the executor to bit-identity
        plan = FaultPlan(uplink_loss_probability=0.1)
        config = faulty_config(client_executor="cohort", faults=plan)
        assert config.faults is plan

    def test_cohort_executor_accepts_noop_plan(self):
        config = faulty_config(client_executor="cohort", faults=FaultPlan())
        assert config.faults is not None and config.faults.is_noop


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("protocol", ["f-matrix", "r-matrix"])
    def test_noop_plan_is_bit_identical_to_none(self, protocol):
        base = faulty_config(protocol=protocol, client_update_fraction=0.2)
        with_none = run_simulation(base.replace(faults=None))
        with_noop = run_simulation(base.replace(faults=FaultPlan()))
        assert signature(with_none) == signature(with_noop)


class TestDozeStalenessGuard:
    def _dozing_config(self, **overrides):
        base = faulty_config(num_clients=1, num_client_transactions=20)
        window = 2 ** base.timestamp_bits
        cycle_bits = base.cycle_bits
        # several radio-off windows, each longer than the full wrap
        # window, so some land mid-transaction (that's when the
        # staleness guard has in-flight reads to protect)
        plan = FaultPlan(
            doze=tuple(
                DozeInterval(0, start * cycle_bits, (window + 1) * cycle_bits)
                for start in (8, 30, 52, 74)
            )
        )
        return base.replace(faults=plan, **overrides)

    def test_doze_past_window_aborts_for_staleness(self):
        result = run_simulation(self._dozing_config(audit=True))
        m = result.metrics
        assert m.aborts_staleness > 0
        assert m.abort_causes["staleness"] == m.aborts_staleness
        # the guard aborts *instead of* committing across the wrap gap
        assert result.audit_report is not None and result.audit_report.ok

    def test_unbounded_timestamps_never_stale(self):
        result = run_simulation(self._dozing_config(modulo_timestamps=False))
        assert result.metrics.aborts_staleness == 0

    def test_dozing_run_is_deterministic(self):
        a = run_simulation(self._dozing_config())
        b = run_simulation(self._dozing_config())
        assert signature(a) == signature(b)


class TestServerCrashRecovery:
    def _crashing_config(self, **overrides):
        base = faulty_config(num_client_transactions=8)
        cycle_bits = base.cycle_bits
        plan = FaultPlan(crashes=(ServerCrash(10.5 * cycle_bits, 2.5 * cycle_bits),))
        return base.replace(faults=plan, **overrides)

    def test_run_completes_through_a_crash(self):
        config = self._crashing_config()
        result = run_simulation(config)
        m = result.metrics
        assert m.server_crashes == 1
        assert m.quiescent_replay_cycles >= 1
        assert len(m.samples) == config.num_clients * config.num_client_transactions

    def test_recovered_state_is_consistent(self):
        result = run_simulation(self._crashing_config(audit=True))
        assert result.audit_report is not None
        assert result.audit_report.ok, result.audit_report.format()

    def test_crash_run_is_deterministic(self):
        a = run_simulation(self._crashing_config())
        b = run_simulation(self._crashing_config())
        assert signature(a) == signature(b)

    def test_cycle_counter_survives_quiescent_downtime(self):
        # the regression recover_server used to hit: cycles broadcast
        # after the last commit must not be re-issued after recovery
        result = run_simulation(self._crashing_config())
        cycles = [r.commit_cycle for r in result.server.database.commit_log]
        assert cycles == sorted(cycles)
        assert result.server.current_cycle >= max(cycles, default=0)


class TestUplinkLoss:
    def _lossy_config(self, **plan_overrides):
        params = dict(uplink_loss_probability=0.4)
        params.update(plan_overrides)
        return faulty_config(
            num_client_transactions=15,
            client_update_fraction=0.5,
            faults=FaultPlan(**params),
        )

    def test_losses_and_retries_counted(self):
        m = run_simulation(self._lossy_config()).metrics
        assert m.uplink_losses > 0
        assert m.uplink_retries > 0
        # every loss is either retried or charged as an uplink abort
        assert m.uplink_losses <= m.uplink_retries + m.aborts_uplink

    def test_exhausted_retries_abort_with_cause(self):
        m = run_simulation(
            self._lossy_config(uplink_loss_probability=0.8, uplink_max_retries=0)
        ).metrics
        assert m.aborts_uplink > 0
        assert m.abort_causes["uplink"] == m.aborts_uplink

    def test_lossy_run_is_deterministic(self):
        a = run_simulation(self._lossy_config())
        b = run_simulation(self._lossy_config())
        assert signature(a) == signature(b)


class TestHeadlineScenario:
    def test_doze_crash_and_loss_survive_with_clean_audit(self):
        from repro.experiments.faults import faults_config

        config = faults_config("f-matrix", transactions=30, seed=42)
        result = run_simulation(config)
        m = result.metrics
        assert len(m.samples) == config.num_clients * config.num_client_transactions
        assert m.server_crashes == 1
        assert m.quiescent_replay_cycles >= 1
        assert m.aborts_staleness > 0
        report = result.audit_report
        assert report is not None
        assert report.ok, report.format()
        assert "wrap-gap-safety" in report.checked


class TestFaultRuntime:
    def _runtime(self, plan):
        return FaultRuntime(plan, faulty_config().arithmetic(), MetricsCollector())

    def test_staleness_window_is_paper_max_cycles(self):
        runtime = self._runtime(FaultPlan())
        assert runtime.staleness_window == 2 ** FAULTY["timestamp_bits"] - 1

    def test_unbounded_arithmetic_has_no_window(self):
        config = faulty_config(modulo_timestamps=False)
        runtime = FaultRuntime(FaultPlan(), config.arithmetic(), MetricsCollector())
        assert runtime.staleness_window is None

    def test_doze_wake_and_slot_heard(self):
        runtime = self._runtime(FaultPlan(doze=(DozeInterval(0, 10.0, 5.0),)))
        assert runtime.doze_wake(0, 12.0) == 15.0
        assert runtime.doze_wake(0, 20.0) is None
        assert runtime.doze_wake(1, 12.0) is None
        assert not runtime.slot_heard(0, 9.0, 11.0)  # overlaps the doze
        assert runtime.slot_heard(0, 15.0, 16.0)
        assert runtime.slot_heard(1, 9.0, 11.0)
        assert runtime.metrics.doze_slots_missed == 1

    def test_outage_blocks_slots_even_across_recovery(self):
        runtime = self._runtime(FaultPlan(crashes=(ServerCrash(10.0, 5.0),)))
        runtime.begin_outage(10.0)
        assert runtime.server_down
        assert not runtime.slot_heard(0, 12.0, 13.0)
        runtime.end_outage(15.0)
        assert not runtime.server_down
        # a slot that started before the crash and ended inside it was
        # dead air even though the wait completes after recovery
        assert not runtime.slot_heard(0, 9.0, 11.0)
        assert runtime.slot_heard(0, 15.0, 16.0)
        assert runtime.metrics.server_crashes == 1
        assert runtime.metrics.crash_slot_stalls == 2

    def test_slot_heard_routes_to_explicit_collector(self):
        # sharded runs charge doze misses to the *measured* shard's
        # collector, not the runtime's default (shadow) one
        runtime = self._runtime(FaultPlan(doze=(DozeInterval(0, 10.0, 5.0),)))
        shard_metrics = MetricsCollector()
        assert not runtime.slot_heard(0, 9.0, 11.0, shard_metrics)
        assert shard_metrics.doze_slots_missed == 1
        assert runtime.metrics.doze_slots_missed == 0

    def test_uplink_streams_are_per_client_and_seed(self):
        plan = FaultPlan(uplink_loss_probability=0.5)
        config = faulty_config()
        a = FaultRuntime(plan, config.arithmetic(), MetricsCollector(), seed=7)
        b = FaultRuntime(plan, config.arithmetic(), MetricsCollector(), seed=7)
        draws_a = [a.uplink_lost(2) for _ in range(32)]
        draws_b = [b.uplink_lost(2) for _ in range(32)]
        assert draws_a == draws_b
        # interleaving another client's draws must not perturb client 2
        c = FaultRuntime(plan, config.arithmetic(), MetricsCollector(), seed=7)
        draws_c = []
        for _ in range(32):
            c.uplink_lost(0)
            draws_c.append(c.uplink_lost(2))
        assert draws_c == draws_a


def _fault_signature(result):
    """Executor-independent observables (event counts excluded: the
    cohort executor legitimately coalesces kernel events)."""
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


class TestCohortFaultEquivalence:
    """PR 7: faults run *inside* the batched path, bit-identically.

    Every scenario runs once per executor; the full observable signature
    (commit multiset, fault-attributed counters, stop time) must match
    the per-process oracle exactly.  Crash times follow the x.5-cycle
    convention so outage boundaries never collide with slot events.
    """

    def _scenarios(self):
        cb = faulty_config().cycle_bits
        window = 2 ** FAULTY["timestamp_bits"]
        return {
            "doze-wrap": dict(
                num_clients=2,
                num_client_transactions=20,
                faults=FaultPlan(
                    doze=tuple(
                        DozeInterval(0, start * cb, (window + 1) * cb)
                        for start in (8, 30, 52, 74)
                    )
                ),
            ),
            "doze-multi-client": dict(
                faults=FaultPlan(
                    doze=(
                        DozeInterval(0, 3 * cb, 2 * cb),
                        DozeInterval(2, 9 * cb, 4 * cb),
                    )
                ),
            ),
            "crash-recovery": dict(
                num_client_transactions=8,
                faults=FaultPlan(crashes=(ServerCrash(10.5 * cb, 2.5 * cb),)),
            ),
            "uplink-loss": dict(
                num_client_transactions=15,
                client_update_fraction=0.5,
                faults=FaultPlan(uplink_loss_probability=0.4),
            ),
            "uplink-exhausted": dict(
                num_client_transactions=15,
                client_update_fraction=0.5,
                faults=FaultPlan(
                    uplink_loss_probability=0.8, uplink_max_retries=0
                ),
            ),
            "combined": dict(
                num_client_transactions=12,
                client_update_fraction=0.3,
                faults=FaultPlan(
                    doze=(DozeInterval(1, 5 * cb, 3 * cb),),
                    crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
                    uplink_loss_probability=0.3,
                ),
            ),
            "unbounded-timestamps": dict(
                modulo_timestamps=False,
                num_client_transactions=12,
                client_update_fraction=0.3,
                faults=FaultPlan(uplink_loss_probability=0.3),
            ),
        }

    @pytest.mark.parametrize(
        "scenario",
        [
            "doze-wrap",
            "doze-multi-client",
            "crash-recovery",
            "uplink-loss",
            "uplink-exhausted",
            "combined",
            "unbounded-timestamps",
        ],
    )
    @pytest.mark.parametrize("seed", [7, 21])
    def test_cohort_matches_process_oracle(self, scenario, seed):
        params = self._scenarios()[scenario]
        oracle = run_simulation(faulty_config(seed=seed, **params))
        cohort = run_simulation(
            faulty_config(seed=seed, client_executor="cohort", **params)
        )
        assert _fault_signature(cohort) == _fault_signature(oracle)

    def test_sharded_cohort_matches_oracle_under_faults(self):
        """A dozing reader on a later shard, with crash and uplink loss."""
        cb = faulty_config().cycle_bits
        params = dict(
            num_clients=6,
            num_client_transactions=8,
            client_update_fraction=0.4,
            num_update_clients=2,
            faults=FaultPlan(
                doze=(
                    DozeInterval(1, 5 * cb, 3 * cb),
                    DozeInterval(4, 9 * cb, 2 * cb),
                ),
                crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
                uplink_loss_probability=0.3,
            ),
        )
        from repro.sim.shard import run_sharded

        oracle = run_simulation(faulty_config(**params))
        sharded = run_sharded(
            faulty_config(client_executor="cohort", shards=3, **params),
            workers=0,
        )
        assert _fault_signature(sharded) == _fault_signature(oracle)

    @pytest.mark.parametrize(
        "scenario",
        [
            "doze-wrap",
            "doze-multi-client",
            "crash-recovery",
            "uplink-loss",
            "uplink-exhausted",
            "combined",
            "unbounded-timestamps",
        ],
    )
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_runs_match_the_oracle_under_faults(self, scenario, shards):
        """Every fault scenario, sharded, bit for bit.

        Each shard recomputes the faulted timeline (crash schedule,
        updaters and their lossy uplink included) and simulates only its
        own readers; the merge must reproduce the oracle exactly.
        """
        from repro.sim.shard import run_sharded

        params = dict(self._scenarios()[scenario])
        params.update(num_clients=6, num_update_clients=2)
        oracle = run_simulation(faulty_config(**params))
        sharded = run_sharded(
            faulty_config(client_executor="cohort", shards=shards, **params),
            workers=0,
        )
        assert _fault_signature(sharded) == _fault_signature(oracle)
