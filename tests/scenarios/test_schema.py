"""Scenario schema validation (repro.scenarios.schema)."""

import pytest

from repro.scenarios import (
    SCENARIO_FORMAT_VERSION,
    Scenario,
    ScenarioError,
    parse_scenario,
)
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultPlan


def minimal(**extra):
    doc = {
        "format_version": SCENARIO_FORMAT_VERSION,
        "name": "unit-test",
        "seed": 9,
    }
    doc.update(extra)
    return doc


class TestParsing:
    def test_minimal_document(self):
        scenario = parse_scenario(minimal())
        assert scenario.name == "unit-test"
        assert scenario.seed == 9
        assert scenario.protocols == ("f-matrix",)
        config = scenario.config_for()
        assert isinstance(config, SimulationConfig)
        assert config.seed == 9
        assert config.protocol == "f-matrix"

    def test_config_section_flows_into_config(self):
        scenario = parse_scenario(
            minimal(config={"num_objects": 40, "num_client_transactions": 5})
        )
        config = scenario.config_for()
        assert config.num_objects == 40
        assert config.num_client_transactions == 5

    def test_config_for_overrides(self):
        scenario = parse_scenario(minimal(protocols=["f-matrix", "r-matrix"]))
        config = scenario.config_for("r-matrix", client_executor="cohort")
        assert config.protocol == "r-matrix"
        assert config.client_executor == "cohort"

    def test_round_trip_through_to_dict(self):
        scenario = parse_scenario(
            minimal(
                description="round trip",
                protocols=["datacycle"],
                config={"num_objects": 50},
                faults={"crashes": [{"time": 5000.0, "downtime": 100.0}]},
                envelope={"commits": [1, 100]},
            )
        )
        again = parse_scenario(scenario.to_dict())
        assert again == scenario


class TestRejection:
    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            parse_scenario(["not", "a", "mapping"])

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown top-level key"):
            parse_scenario(minimal(wokload={}))

    def test_wrong_format_version(self):
        doc = minimal()
        doc["format_version"] = 99
        with pytest.raises(ScenarioError, match="format_version"):
            parse_scenario(doc)

    def test_missing_seed(self):
        doc = minimal()
        del doc["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(doc)

    def test_bool_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(minimal(seed=True))

    def test_bad_name_rejected(self):
        with pytest.raises(ScenarioError, match="kebab-case"):
            parse_scenario(minimal(name="Not A Name"))

    def test_unknown_protocol(self):
        with pytest.raises(ScenarioError, match="unknown protocol"):
            parse_scenario(minimal(protocols=["g-matrix"]))

    def test_duplicate_protocol(self):
        with pytest.raises(ScenarioError, match="duplicate protocol"):
            parse_scenario(minimal(protocols=["f-matrix", "f-matrix"]))

    def test_reserved_config_fields_rejected(self):
        for reserved in ("protocol", "seed", "faults"):
            with pytest.raises(ScenarioError, match="may not set"):
                parse_scenario(minimal(config={reserved: 1}))

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown SimulationConfig"):
            parse_scenario(minimal(config={"num_objcts": 40}))

    def test_eager_config_validation(self):
        # a doze interval naming a client the run does not have is
        # illegal in SimulationConfig; the scenario must be rejected at
        # parse time, not at run time
        with pytest.raises(ScenarioError, match="doze interval names client"):
            parse_scenario(
                minimal(
                    config={"num_clients": 1},
                    faults={"doze": [
                        {"client": 3, "start": 0.0, "duration": 10.0}
                    ]},
                )
            )

    def test_envelope_unknown_metric(self):
        with pytest.raises(ScenarioError, match="unknown envelope metric"):
            parse_scenario(minimal(envelope={"responce_time": [0, 1]}))

    def test_envelope_bad_bounds(self):
        with pytest.raises(ScenarioError, match=r"\[lo, hi\]"):
            parse_scenario(minimal(envelope={"commits": [1]}))


class TestFaultsSection:
    def test_explicit_doze_and_crashes(self):
        scenario = parse_scenario(
            minimal(
                config={"num_clients": 2, "client_executor": "cohort"},
                faults={
                    "doze": [{"client": 1, "start": 100.0, "duration": 50.0}],
                    "crashes": [{"time": 5000.0, "downtime": 100.0}],
                    "uplink_loss_probability": 0.25,
                },
            )
        )
        plan = scenario.faults
        assert isinstance(plan, FaultPlan)
        assert plan.doze[0].client == 1
        assert plan.crashes[0].time == pytest.approx(5000.0)
        assert plan.uplink_loss_probability == pytest.approx(0.25)

    def test_seeded_block_is_deterministic(self):
        doc = minimal(
            config={"num_clients": 3, "client_executor": "cohort"},
            faults={
                "seeded": {
                    "horizon": 1_000_000.0,
                    "mean_time_between_dozes": 100_000.0,
                    "mean_doze_duration": 10_000.0,
                }
            },
        )
        first = parse_scenario(doc)
        second = parse_scenario(doc)
        assert first.faults == second.faults
        assert first.faults is not None and first.faults.doze

    def test_seeded_and_explicit_doze_conflict(self):
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(
                minimal(
                    faults={
                        "doze": [
                            {"client": 0, "start": 0.0, "duration": 1.0}
                        ],
                        "seeded": {"horizon": 1000.0},
                    }
                )
            )

    def test_seeded_requires_horizon(self):
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(minimal(faults={"seeded": {}}))

    def test_unknown_faults_key(self):
        with pytest.raises(ScenarioError, match="unknown faults key"):
            parse_scenario(minimal(faults={"dozes": []}))

    def test_noop_plan_collapses_to_none(self):
        scenario = parse_scenario(minimal(faults={"crashes": []}))
        assert scenario.faults is None

    def test_doze_client_out_of_range_rejected_eagerly(self):
        with pytest.raises(ScenarioError, match="client"):
            parse_scenario(
                minimal(
                    faults={"doze": [
                        {"client": 5, "start": 0.0, "duration": 1.0}
                    ]}
                )
            )


class TestScenarioDataclass:
    def test_frozen(self):
        scenario = parse_scenario(minimal())
        with pytest.raises(AttributeError):
            scenario.seed = 10

    def test_direct_construction_matches_parse(self):
        direct = Scenario(name="unit-test", seed=9)
        parsed = parse_scenario(minimal())
        assert direct.config_for() == parsed.config_for()
