"""Tests for the repo-specific lint pass (repro.analysis.lint).

Fixture files live outside the package tree, so every rule applies to
them (scope rules only narrow inside ``repro/``); each fixture violates
exactly one rule and declares ``__all__`` so REP005 stays quiet.
"""

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import collect_files, lint_file, lint_paths, main
from repro.analysis.rules import RULES

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro")

FIXTURES = {
    "REP001": '''\
__all__ = []
import time

def stamp():
    return time.time()
''',
    "REP002": '''\
__all__ = []
import random

def pick():
    return random.random()
''',
    "REP003": '''\
__all__ = []

def poke(matrix):
    matrix._c[0, 0] = 99
''',
    "REP004": '''\
__all__ = []

def close_enough(x):
    return x == 0.25
''',
    "REP005": '''\
def helper():
    return 1
''',
    "REP006": '''\
__all__ = []

class Tick:
    pass

def process(sim):
    while True:
        yield Tick()
''',
    "REP008": '''\
__all__ = []

def snapshot(self):
    return [c.state for c in self.clients]
''',
    "REP009": '''\
__all__ = []

def fan_out(pool, simulation):
    return pool.submit(run_one, simulation)
''',
    "REP010": '''\
__all__ = []

def debug(state):
    print(state)
''',
}


def write_fixture(tmp_path: Path, name: str, source: str) -> str:
    path = tmp_path / name
    path.write_text(source)
    return str(path)


#: fixtures that trip more than their own rule: out-of-tree files are in
#: scope for every rule, REP007 is REP002 widened to the whole tree, and
#: REP010 re-reports REP001's wall-clock reads (plus print) in its scopes
EXPECTED_RULES = {
    "REP001": {"REP001", "REP010"},
    "REP002": {"REP002", "REP007"},
}


class TestRules:
    def test_each_fixture_trips_exactly_its_rule(self, tmp_path):
        for rule_id, source in FIXTURES.items():
            path = write_fixture(tmp_path, f"fixture_{rule_id.lower()}.py", source)
            findings = lint_file(path)
            expected = EXPECTED_RULES.get(rule_id, {rule_id})
            assert {f.rule for f in findings} == expected, (
                f"{rule_id}: got {[f.format() for f in findings]}"
            )

    def test_findings_are_structured(self, tmp_path):
        path = write_fixture(tmp_path, "wallclock.py", FIXTURES["REP001"])
        finding = lint_file(path)[0]
        assert finding.rule == "REP001"
        assert finding.path == path
        assert finding.line == 5
        assert "time.time" in finding.message
        assert finding.format().startswith(f"{path}:5:")

    def test_numpy_global_rng_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "nprng.py",
            "__all__ = []\nimport numpy as np\n\n\ndef draw():\n"
            "    return np.random.rand(3)\n",
        )
        assert {f.rule for f in lint_file(path)} == {"REP002", "REP007"}

    def test_seeded_rng_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "seeded.py",
            "__all__ = []\nimport random\nimport numpy as np\n\n\n"
            "def draw(seed):\n"
            "    rng = random.Random(seed)\n"
            "    gen = np.random.default_rng(seed)\n"
            "    return rng.random() + gen.random()\n",
        )
        assert lint_file(path) == []

    def test_owned_private_attribute_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "owned.py",
            "__all__ = []\n\n\nclass Box:\n"
            "    def __init__(self):\n"
            "        self._items = []\n\n"
            "    def copy(self):\n"
            "        out = Box()\n"
            "        out._items = list(self._items)\n"
            "        return out\n",
        )
        assert lint_file(path) == []

    def test_noqa_suppresses_specific_rule(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "suppressed.py",
            "__all__ = []\nimport time\n\n\ndef stamp():\n"
            "    return time.time()  # noqa: REP001,REP010\n",
        )
        assert lint_file(path) == []

    def test_noqa_other_rule_does_not_suppress(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "wrongnoqa.py",
            "__all__ = []\nimport time\n\n\ndef stamp():\n"
            "    return time.time()  # noqa: REP004\n",
        )
        assert {f.rule for f in lint_file(path)} == {"REP001", "REP010"}

    def test_allow_alloc_suppresses_hot_loop_allocation(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_alloc.py",
            "__all__ = []\n\n\nclass Tick:\n    pass\n\n\n"
            "def process(sim):\n"
            "    while True:\n"
            "        yield Tick()  # rep: allow-alloc\n",
        )
        assert lint_file(path) == []

    def test_hoisted_event_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "hoisted.py",
            "__all__ = []\n\n\nclass Tick:\n    pass\n\n\n"
            "def process(sim):\n"
            "    tick = Tick()\n"
            "    while True:\n"
            "        yield tick\n",
        )
        assert lint_file(path) == []

    def test_non_generator_loop_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "plain_loop.py",
            "__all__ = []\n\n\nclass Tick:\n    pass\n\n\n"
            "def spin():\n"
            "    while True:\n"
            "        t = Tick()\n"
            "        if t:\n"
            "            return t\n",
        )
        assert lint_file(path) == []

    def test_raised_exception_in_hot_loop_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "raising.py",
            "__all__ = []\n\n\n"
            "def process(sim):\n"
            "    while True:\n"
            "        yield sim.step()\n"
            "        if sim.done:\n"
            "            raise RuntimeError('done')\n",
        )
        assert lint_file(path) == []

    def test_scoped_rules_skip_out_of_scope_package_files(self):
        wallclock = next(r for r in RULES if r.rule_id == "REP001")
        assert wallclock.applies_to("src/repro/sim/engine.py")
        assert not wallclock.applies_to("src/repro/experiments/cli.py")
        assert wallclock.applies_to("tests/analysis/fixture.py")

    def test_rep007_covers_tree_outside_kernel_scopes(self):
        anywhere = next(r for r in RULES if r.rule_id == "REP007")
        # REP002's kernel scopes stay REP002's: no double-reporting
        assert not anywhere.applies_to("src/repro/sim/processes.py")
        assert not anywhere.applies_to("src/repro/core/model.py")
        # ...but the rest of the tree is now covered
        assert anywhere.applies_to("src/repro/experiments/figures.py")
        assert anywhere.applies_to("src/repro/analysis/consistency/explore.py")
        assert anywhere.applies_to("tests/analysis/fixture.py")

    def test_allow_unseeded_suppresses_rep007_only(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_unseeded.py",
            "__all__ = []\nimport random\n\n\ndef pick():\n"
            "    return random.random()  # rep: allow-unseeded\n",
        )
        # the escape comment quiets REP007; REP002 still reports the draw
        assert {f.rule for f in lint_file(path)} == {"REP002"}

    def test_rep010_scoped_to_sim_and_server(self):
        side_channel = next(r for r in RULES if r.rule_id == "REP010")
        assert side_channel.applies_to("src/repro/sim/processes.py")
        assert side_channel.applies_to("src/repro/server/engine.py")
        # the obs layer is the sanctioned home for wall-clock reads, and
        # the CLIs/benchmarks legitimately print
        assert not side_channel.applies_to("src/repro/obs/profiler.py")
        assert not side_channel.applies_to("src/repro/experiments/cli.py")
        assert side_channel.applies_to("tests/analysis/fixture.py")

    def test_allow_wallclock_suppresses_rep010_only(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_wallclock.py",
            "__all__ = []\nimport time\n\n\ndef stamp():\n"
            "    return time.time()  # rep: allow-wallclock\n",
        )
        # the escape comment quiets REP010; REP001 still reports the read
        assert {f.rule for f in lint_file(path)} == {"REP001"}

    def test_rep010_flags_print_with_escape(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_print.py",
            "__all__ = []\n\n\ndef debug(state):\n"
            "    print(state)  # rep: allow-wallclock\n",
        )
        assert lint_file(path) == []

    def test_rep008_scoped_to_shard_hot_paths(self):
        population = next(r for r in RULES if r.rule_id == "REP008")
        assert population.applies_to("src/repro/sim/cohort.py")
        assert population.applies_to("src/repro/sim/shard.py")
        assert not population.applies_to("src/repro/sim/processes.py")
        assert not population.applies_to("src/repro/experiments/bench.py")
        assert population.applies_to("tests/analysis/fixture.py")

    def test_rep008_generator_expressions_stream(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "streaming.py",
            "__all__ = []\n\n\ndef total(members):\n"
            "    return sum(m.cost for m in members)\n",
        )
        assert lint_file(path) == []

    def test_rep008_non_population_iterables_ignored(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "bounded.py",
            "__all__ = []\n\n\ndef widths(columns):\n"
            "    return [len(c) for c in columns]\n",
        )
        assert lint_file(path) == []

    def test_rep008_flags_dict_and_set_comps_and_attributes(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "percohort.py",
            "__all__ = []\n\n\ndef index(self, survivors):\n"
            "    ids = {c.client_id for c in survivors}\n"
            "    by_id = {c.client_id: c for c in self.readers}\n"
            "    return ids, by_id\n",
        )
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["REP008", "REP008"]
        assert "survivors" in findings[0].message
        assert "readers" in findings[1].message

    def test_allow_client_loop_escape(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_loop.py",
            "__all__ = []\n\n\ndef snapshot(self):\n"
            "    # rep: allow-client-loop — startup scan, runs once\n"
            "    return [c.state for c in self.clients]\n",
        )
        assert lint_file(path) == []

    def test_allow_client_loop_on_same_line(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_inline.py",
            "__all__ = []\n\n\ndef pick(members):\n"
            "    return [m for m in members]  # rep: allow-client-loop\n",
        )
        assert lint_file(path) == []

    def test_rep009_applies_to_the_whole_tree(self):
        pickling = next(r for r in RULES if r.rule_id == "REP009")
        assert pickling.applies_to("src/repro/sim/shard.py")
        assert pickling.applies_to("src/repro/sim/batch.py")
        assert pickling.applies_to("src/repro/experiments/sweeps.py")
        assert pickling.applies_to("tests/analysis/fixture.py")

    def test_rep009_configs_and_handles_may_cross(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "clean_boundary.py",
            "__all__ = []\n\n\ndef fan_out(pool, config, handle, jobs):\n"
            "    futures = [pool.submit(run_one, (config, handle))]\n"
            "    return futures, list(pool.map(run_one, jobs))\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert findings == []

    def test_rep009_catches_state_inside_containers(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "smuggled.py",
            "__all__ = []\nimport pickle\n\n\n"
            "def ship(self, pool, config):\n"
            "    pool.submit(run_one, (config, self.server))\n"
            "    return pickle.dumps(self.state)\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert len(findings) == 2
        assert "server" in findings[0].message
        assert "state" in findings[1].message

    def test_rep009_catches_stateful_class_names(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "classcross.py",
            "__all__ = []\n\n\ndef ship(pool, config):\n"
            "    return pool.submit(run_one, BroadcastSimulation(config))\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert len(findings) == 1
        assert "BroadcastSimulation" in findings[0].message

    def test_allow_pickle_escape(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "allowed_pickle.py",
            "__all__ = []\nimport pickle\n\n\n"
            "def archive(server):\n"
            "    # rep: allow-pickle — quiesced, run already finished\n"
            "    return pickle.dumps(server)\n",
        )
        assert [f for f in lint_file(path) if f.rule == "REP009"] == []


class TestDriver:
    def test_repo_source_is_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], [f.format() for f in findings]

    def test_collect_files_deterministic(self):
        files = collect_files([REPO_SRC])
        assert files == sorted(files)
        assert all(
            f.endswith((".py", ".yaml", ".yml", ".json")) for f in files
        )

    def test_collect_files_includes_scenario_library(self):
        files = collect_files([REPO_SRC])
        yaml_files = [f for f in files if f.endswith((".yaml", ".yml"))]
        assert yaml_files, "scenario library files must be collected"
        assert all("scenarios" in f for f in yaml_files)

    def test_collect_files_skips_data_outside_scenarios(self, tmp_path):
        (tmp_path / "notes.yaml").write_text("a: 1\n")
        (tmp_path / "mod.py").write_text("__all__ = []\n")
        files = collect_files([str(tmp_path)])
        assert files == [str(tmp_path / "mod.py")]

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = write_fixture(tmp_path, "clean.py", "__all__ = []\n")
        assert main([clean]) == 0
        dirty = write_fixture(tmp_path, "dirty.py", FIXTURES["REP004"])
        assert main([dirty]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out

    def test_json_output(self, tmp_path, capsys):
        dirty = write_fixture(tmp_path, "dirty.py", FIXTURES["REP001"])
        assert main(["--json", dirty]) == 1
        out = capsys.readouterr().out
        assert '"rule": "REP001"' in out

    def test_module_invocation_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", REPO_SRC],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout


GOOD_SCENARIO = """\
format_version: 1
name: lint-fixture
description: a valid scenario for the lint tests
seed: 3
protocols: [f-matrix]
config:
  num_objects: 20
  num_client_transactions: 2
"""

UNSEEDED_SCENARIO = """\
format_version: 1
name: lint-fixture
protocols: [f-matrix]
"""


class TestScenarioFileRule:
    """REP011: scenario data files must validate and name a seed."""

    def _scenario_file(self, tmp_path, text, name="fixture.yaml"):
        root = tmp_path / "scenarios"
        root.mkdir(exist_ok=True)
        path = root / name
        path.write_text(text)
        return str(path)

    def test_valid_scenario_is_clean(self, tmp_path):
        path = self._scenario_file(tmp_path, GOOD_SCENARIO)
        assert lint_file(path) == []

    def test_missing_seed_flagged_at_top(self, tmp_path):
        path = self._scenario_file(tmp_path, UNSEEDED_SCENARIO)
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["REP011"]
        assert "seed" in findings[0].message

    def test_seed_line_is_pinpointed(self, tmp_path):
        bad = GOOD_SCENARIO.replace("seed: 3", 'seed: "three"')
        path = self._scenario_file(tmp_path, bad)
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["REP011"]
        assert findings[0].line == 4  # the seed: line
        assert findings[0].format().startswith(f"{path}:4:")

    def test_unparseable_yaml_flagged(self, tmp_path):
        path = self._scenario_file(tmp_path, "format_version: [unclosed\n")
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["REP011"]

    def test_invalid_json_scenario_flagged(self, tmp_path):
        path = self._scenario_file(tmp_path, "{not json", name="bad.json")
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["REP011"]
        assert "JSON" in findings[0].message

    def test_schema_violation_flagged(self, tmp_path):
        bad = GOOD_SCENARIO + "wokload: {}\n"
        path = self._scenario_file(tmp_path, bad)
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["REP011"]
        assert "unknown top-level key" in findings[0].message

    def test_noqa_suppresses_in_yaml(self, tmp_path):
        bad = UNSEEDED_SCENARIO.replace(
            "name: lint-fixture", "name: lint-fixture  # noqa: REP011"
        )
        # the finding is pinned to line 1 (no seed line to point at);
        # suppress there instead
        bad = "# noqa: REP011\n" + bad
        path = self._scenario_file(tmp_path, bad)
        assert lint_file(path) == []

    def test_main_exit_codes_for_scenario_dirs(self, tmp_path, capsys):
        self._scenario_file(tmp_path, UNSEEDED_SCENARIO)
        assert main([str(tmp_path / "scenarios")]) == 1
        assert "REP011" in capsys.readouterr().out

    def test_shipped_library_is_clean(self):
        library = str(
            Path(REPO_SRC) / "scenarios" / "library"
        )
        findings = lint_paths([library])
        assert findings == [], [f.format() for f in findings]

    def test_python_files_in_scenarios_package_unaffected(self, tmp_path):
        root = tmp_path / "scenarios"
        root.mkdir()
        clean = root / "mod.py"
        clean.write_text("__all__ = []\n")
        assert lint_file(str(clean)) == []
