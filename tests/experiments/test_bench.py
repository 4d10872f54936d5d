"""Tests for the wall-clock benchmark harness (repro.experiments.bench)."""

import json

import pytest

from repro.experiments.bench import (
    bench_micro,
    bench_scaling,
    bench_simulations,
    compare_runs,
    main,
    run_bench,
)


def tiny_micro(**overrides):
    params = dict(
        num_objects=20,
        commits=30,
        cycles=20,
        validate_txns=3,
        validate_txn_length=8,
    )
    params.update(overrides)
    return bench_micro(**params)


class TestSections:
    def test_simulations_records(self):
        records = bench_simulations(transactions=5, seed=3)
        names = [r["name"] for r in records]
        assert names == [
            "f-matrix", "f-matrix-no", "r-matrix",
            "datacycle", "group-matrix-16", "f-matrix-modulo",
        ]
        for r in records:
            assert r["seconds"] >= 0 and r["events"] > 0
            assert r["fingerprint"]  # config provenance rides along

    def test_simulations_same_seed_same_metrics(self):
        a = bench_simulations(transactions=5, seed=3)
        b = bench_simulations(transactions=5, seed=3)
        for ra, rb in zip(a, b):
            assert ra["response_mean"] == rb["response_mean"]
            assert ra["restart_mean"] == rb["restart_mean"]
            assert ra["events"] == rb["events"]

    def test_scaling_points_identical_and_deterministic(self):
        out = bench_scaling(
            clients=(4, 16),
            transactions=2,
            seed=5,
            trials=1,
            include_defaults=False,
            mega=(16_384,),
        )
        assert [p["clients"] for p in out["points"]] == [4, 16]
        for point in out["points"]:
            # the cohort executor is a reorganisation, not an approximation
            assert point["metrics_identical"] is True
            assert point["cohort_events"] <= point["process_events"]
            assert point["speedup"] > 0
        assert out["same_seed_determinism_ok"] is True
        assert "table1_defaults" not in out
        # the one mega point: 2-shard cohort run vs. the same config
        # unsharded, every identity basis bit-for-bit
        [mega] = out["mega_points"]
        assert mega["clients"] == 16_384 and mega["shards"] == 2
        assert mega["identity_basis"]
        assert all(ok is True for ok in mega["identity_basis"].values())
        assert mega["metrics_identical"] is True

    def test_micro_checksums_deterministic(self):
        a = {r["name"]: r["checksum"] for r in tiny_micro()}
        b = {r["name"]: r["checksum"] for r in tiny_micro()}
        assert a == b
        assert set(a) == {
            "apply_commit",
            "snapshot_freeze_mixed",
            "snapshot_freeze_quiescent",
            "validate_read_f-matrix",
            "validate_read_datacycle",
        }


class TestRunBench:
    def test_sections_subset(self):
        run = run_bench(label="x", smoke=True, sections=("micro",))
        assert "micro" in run and "simulations" not in run and "sweeps" not in run
        assert run["label"] == "x" and run["smoke"] is True
        assert run["cpu_count"] >= 1

    def test_smoke_caps_workload(self):
        run = run_bench(label="x", smoke=True, transactions=500, sections=())
        assert run["params"]["transactions"] == 30


class TestCompareRuns:
    def base_run(self):
        return {
            "label": "before",
            "simulations": [
                {"name": "f-matrix", "seconds": 2.0, "response_mean": 7.5,
                 "restart_mean": 0.25, "events": 100},
            ],
            "micro": [
                {"name": "apply_commit", "seconds": 1.0, "checksum": 11},
            ],
            "sweeps": {"sequential_seconds": 10.0},
        }

    def test_speedups_and_determinism_ok(self):
        current = json.loads(json.dumps(self.base_run()))
        current["label"] = "after"
        current["simulations"][0]["seconds"] = 1.0
        current["micro"][0]["seconds"] = 0.5
        current["sweeps"] = {
            "sequential_seconds": 5.0,
            "parallel_seconds": 2.5,
        }
        cmp = compare_runs(self.base_run(), current)
        assert cmp["simulations_speedup"]["f-matrix"] == 2.0
        assert cmp["micro_speedup"]["apply_commit"] == 2.0
        assert cmp["sweeps_sequential_speedup"] == 2.0
        assert cmp["sweeps_parallel_speedup"] == 4.0
        assert cmp["determinism_ok"] is True

    def test_metric_drift_flags_determinism(self):
        current = json.loads(json.dumps(self.base_run()))
        current["simulations"][0]["response_mean"] = 7.6
        assert compare_runs(self.base_run(), current)["determinism_ok"] is False

    def test_checksum_drift_flags_determinism(self):
        current = json.loads(json.dumps(self.base_run()))
        current["micro"][0]["checksum"] = 12
        assert compare_runs(self.base_run(), current)["determinism_ok"] is False


class TestMain:
    def test_smoke_writes_document(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "--smoke", "--label", "t1", "--workers", "0",
            "--sections", "simulations", "--transactions", "5",
            "--output", str(out),
        ]) == 0
        document = json.loads(out.read_text())
        assert document["schema"] == 1
        assert [r["label"] for r in document["runs"]] == ["t1"]
        assert "comparison" not in document  # single run: nothing to compare
        assert "wrote" in capsys.readouterr().out

    def test_append_adds_comparison(self, tmp_path):
        out = tmp_path / "bench.json"
        base_args = [
            "--smoke", "--workers", "0", "--sections", "simulations",
            "--transactions", "5", "--output", str(out),
        ]
        main(["--label", "before"] + base_args)
        main(["--label", "after", "--append"] + base_args)
        document = json.loads(out.read_text())
        assert [r["label"] for r in document["runs"]] == ["before", "after"]
        cmp = document["comparison"]
        assert cmp["baseline"] == "before" and cmp["current"] == "after"
        assert cmp["determinism_ok"] is True  # same seed, same metrics

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--sections", "nope", "--output", str(tmp_path / "b.json")])

    def test_scaling_section_writes_scaling_document(self, tmp_path, capsys):
        out = tmp_path / "scaling.json"
        assert main([
            "--smoke", "--label", "s1", "--sections", "scaling",
            "--output", str(out),
        ]) == 0
        document = json.loads(out.read_text())
        assert document["benchmark"] == "scaling"
        scaling = document["runs"][0]["scaling"]
        assert [p["clients"] for p in scaling["points"]] == [8, 64]
        assert scaling["same_seed_determinism_ok"] is True
        printed = capsys.readouterr().out
        assert "same-seed determinism: OK" in printed
