"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import measure
import workloads
from ledger import Ledger, layer_targets

HERE = Path(__file__).resolve().parent


def _tiny(name: str, seed: int = workloads.DEFAULT_SEED):
    configs = workloads.WORKLOADS[name].configs(seed, "tiny")
    return configs, workloads.run_repetition(configs, time.perf_counter)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_output_check(name):
    configs, rep = _tiny(name)
    verdicts = measure.Verdicts(name, seed=7, configs=configs)
    assert verdicts.record(rep), verdicts.problems
    # a second repetition of the same seed must reproduce the first
    again = workloads.run_repetition(configs, time.perf_counter)
    assert verdicts.record(again), verdicts.problems
    assert (verdicts.attempted, verdicts.failed) == (2, 0)
    if any(config.audit for config in configs):
        assert rep.certified and all(rep.certified)


def test_perturbed_reference_is_a_failure():
    configs, rep = _tiny("mixed-faults")
    sig = workloads.signature(rep)
    perturbed = copy.deepcopy(sig)
    key = workloads.run_key(configs[0])
    perturbed[key]["reads_rejected"] += 1
    assert workloads.check(sig, perturbed) == [
        f"{key}.reads_rejected: {sig[key]['reads_rejected']!r} "
        f"!= reference {perturbed[key]['reads_rejected']!r}"
    ]
    verdicts = measure.Verdicts("mixed-faults", seed=7, configs=configs)
    verdicts.reference = perturbed
    assert not verdicts.record(rep)
    assert (verdicts.attempted, verdicts.failed) == (1, 1)


def test_invariants_catch_a_short_run():
    configs, rep = _tiny("table1")
    sig = workloads.signature(rep)
    key = workloads.run_key(configs[1])
    sig[key]["commits"] -= 1
    want = configs[1].num_client_transactions
    assert workloads.invariant_problems(configs, sig) == [
        f"{key}: {want - 1} commits, want {want}"
    ]


def test_pinned_reference_covers_every_workload():
    import run

    pinned = json.loads(workloads.REFERENCE_PATH.read_text())
    assert sorted(pinned) == sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        runs = [workloads.run_key(c) for c in workload.configs(workloads.DEFAULT_SEED)]
        assert sorted(pinned[name]) == sorted(runs)


def test_traced_run_restores_every_wrapped_name():
    targets = layer_targets()
    originals = [(owner, attr, vars(owner)[attr]) for _span, owner, attr in targets]
    ledger = Ledger()
    with ledger.installed(targets):
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in originals)
        for name in ("mixed-faults", "audit", "crowd"):
            _tiny(name)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)
    for span in ("sim.run", "validators.batch", "cache.lookup", "faults.slot_heard",
                 "server.submit_update", "analysis.audit", "analysis.certify"):
        assert ledger.calls[span] > 0, span
    assert 0.0 < ledger.covered_s


def test_ledger_restores_after_an_exception():
    from repro.sim.engine import Simulator

    original = vars(Simulator)["run"]
    with pytest.raises(RuntimeError):
        with Ledger().installed([("sim.run", Simulator, "run")]):
            raise RuntimeError("boom")
    assert vars(Simulator)["run"] is original


def test_self_time_excludes_nested_spans():
    def spin(seconds):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            pass

    def outer():
        module.inner()
        spin(0.02)

    module = types.SimpleNamespace(outer=outer, inner=lambda: spin(0.03))
    ledger = Ledger()
    with ledger.installed([("outer", module, "outer"), ("inner", module, "inner")]):
        module.outer()
    assert ledger.calls == {"outer": 1, "inner": 1}
    assert ledger.self_s["inner"] >= 0.03
    assert ledger.self_s["outer"] < 0.03
    assert ledger.covered_s == pytest.approx(sum(ledger.self_s.values()))


def test_run_refuses_a_tree_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    result = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
