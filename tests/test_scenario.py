"""Scenario file parsing, validation diagnostics, and shipped-file sanity."""

import copy
import re
import traceback
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinbridge import scenario as scenario_module
from twinbridge.cli import main
from twinbridge.envelope import TIER_BULK, TIER_CRITICAL, TIER_STANDARD
from twinbridge.msgbus import MessageKind
from twinbridge.scenario import _SYNC_KEYS, ScenarioParseError, load_scenario
from twinbridge.twinsync import PhysicalParams, SyncBoundModel, SyncController

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """\
name: test
seed: 1
duration: 5.0
"""


# (section appended to MINIMAL, path of its misspelt key, line of that key)
UNKNOWN_KEYS = [
    ("sycn:\n  mass: 10.0\n", "sycn", 4),
    ("network:\n  latncy: 0.1\n", "network.latncy", 5),
    ("bridge:\n  replay_capacty: 8\n", "bridge.replay_capacty", 5),
    ("policy:\n  defualt: bulk\n", "policy.defualt", 5),
    ("policy:\n  rules:\n    - {pattern: /a, tier: critical, prio: 1}\n", "policy.rules[0].prio", 6),
    ("agents:\n  count: 1\n  topic: []\n  topics: []\n", "agents.topic", 6),
    ("agents:\n  count: 1\n  topics:\n    - {name: /a, kind: pose, rate: 1.0, size: 8, rat: 2}\n",
     "agents.topics[0].rat", 7),
    ("sync:\n  mas: 10.0\n", "sync.mas", 5),
    ("sync:\n  bound: {lipschitz: 1.0, delta: 0.5, e_0: 0.1}\n", "sync.bound.e_0", 5),
    ("mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  probe: 4\n", "mmcf.probe", 6),
    ("mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {batches: [1, 2]}\n", "mmcf.space.batches", 6),
    ("geo:\n  reference: [0.0, 0.0, 0.0]\n", "geo", 4),
    # keys of settings the simulator no longer has: the link fixes the byte
    # budget, and every topic publishes from t = 0
    ("bridge:\n  budget_per_tick: 1500\n", "bridge.budget_per_tick", 5),
    ("agents:\n  count: 1\n  topics:\n    - {name: /a, kind: pose, rate: 1.0, size: 8, start: 0.5}\n",
     "agents.topics[0].start", 7),
    # the bridge bridges its topic list in strict priority: no discovery, no per-tier shares
    ("bridge:\n  discovery: {enabled: true}\n", "bridge.discovery", 5),
    ("bridge:\n  shares: [0.6, 0.3, 0.1]\n", "bridge.shares", 5),
    ("mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {shares: [[0.6, 0.3, 0.1]]}\n", "mmcf.space.shares", 6),
    ("mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {discovery_period: [0.5]}\n",
     "mmcf.space.discovery_period", 6),
]


class TestLoading:
    def test_minimal(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        assert scenario.name == "test"
        assert scenario.seed == 1
        assert scenario.duration == 5.0
        assert scenario.sync is None
        assert scenario.mmcf is None

    def test_full_sections(self, tmp_path):
        text = MINIMAL + """\
network:
  latency: [[0.0, 0.1], [3.0, 0.2]]
  loss: 0.25
  bandwidth: 50000
  disconnects: [[1.0, 2.0]]
policy:
  default: bulk
  rules:
    - {pattern: "/a/*", tier: critical}
agents:
  count: 2
  topics:
    - {name: "/r{i}/pose", kind: pose, rate: 10.0, size: 64}
sync:
  mass: 5.0
  force_script: [[0.0, 1.0, 0.0, 0.0]]
  bound: {lipschitz: 1.0, delta: 0.5}
mmcf:
  weights: [0.4, 0.3, 0.2, 0.1]
  space:
    redundancy: [0, 1]
"""
        scenario = load_scenario(write(tmp_path, text))
        assert scenario.conditions.latency.value_at(4.0) == 0.2
        assert scenario.conditions.bandwidth_cap == 50000
        assert scenario.conditions.in_disconnect(1.5)
        assert scenario.policy.classify("/a/x") == TIER_CRITICAL
        assert scenario.policy.classify("/other") == TIER_BULK
        traffic = scenario.traffic_for()
        assert [t.topic for t in traffic] == ["/r1/pose", "/r2/pose"]
        assert traffic[0].kind == MessageKind.POSE
        assert scenario.sync.params.mass == 5.0
        assert scenario.sync.bound == SyncBoundModel(1.0, 0.5, 0.0)
        assert len(scenario.mmcf.space) == 2

    def test_empty_sync_section_takes_the_twinsync_defaults(self, tmp_path):
        spec = load_scenario(write(tmp_path, MINIMAL + "sync: {}\n")).sync
        assert spec.controller == SyncController()
        assert spec.params == PhysicalParams()
        assert spec.bound is None
        assert spec.force_script == ((0.0, 0.0, 0.0, 0.0),)

    @pytest.mark.parametrize(
        "sync, problems",
        [
            ("  mass: 10.0\n  drag: 1999.0\n", []),
            ("  mass: 10.0\n  drag: 2000.0\n", ["sync.drag (line 6): drag * TICK / mass is 2.0"]),
            ("  drag: 2000.0\n", ["sync.drag (line 5): drag * TICK / mass is 2.0"]),  # mass defaults to 10
            ("  mass: 0.5\n  drag: 100.0\n", ["sync.drag (line 6): drag * TICK / mass is 2.0"]),
            ("  mass: -1.0\n  drag: 2000.0\n", ["sync.mass (line 5): must be positive"]),
        ],
        ids=["below-2", "at-2", "default-mass", "light-agent", "bad-mass-alone"],
    )
    def test_a_drag_step_at_or_past_the_stability_limit_is_an_error(self, tmp_path, sync, problems):
        # each tick scales the velocity by 1 - drag * TICK / mass, which no longer decays at 2
        try:
            load_scenario(write(tmp_path, MINIMAL + "sync:\n" + sync))
            found = []
        except ScenarioParseError as exc:
            found = exc.problems
        assert len(found) == len(problems) and all(f.startswith(p) for f, p in zip(found, problems)), found

    def test_zero_is_kept_not_replaced_by_the_default(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL + "bridge:\n  replay_attempts: 0\n"))
        assert scenario.endpoint.replay_attempts == 0

    def test_an_omitted_mmcf_axis_takes_the_scenarios_bridge_value(self, tmp_path):
        text = MINIMAL + """\
bridge:
  batch: 8
  replay_capacity: 512
  heartbeat: 0.5
  replay_attempts: 3
mmcf:
  weights: [0.4, 0.3, 0.2, 0.1]
  space: {redundancy: [0, 1]}
"""
        scenario = load_scenario(write(tmp_path, text))
        configs = scenario.mmcf.space
        assert [c.redundancy for c in configs] == [0, 1]
        for config in configs:
            assert config.batch_size == 8
            assert config.replay_capacity == 512
        # a candidate is the scenario's endpoint with its axes set, so the fields the search leaves alone are kept
        assert configs == (scenario.endpoint, replace(scenario.endpoint, redundancy=1))

    def test_traffic_for_overrides_count(self, tmp_path):
        text = MINIMAL + """\
agents:
  count: 2
  topics:
    - {name: "/r{i}/pose", kind: pose, rate: 1.0, size: 8}
"""
        scenario = load_scenario(write(tmp_path, text))
        assert len(scenario.traffic_for(5)) == 5

    def test_whole_floats_read_as_integers(self, tmp_path):
        text = "name: test\nseed: 2.0\nduration: 5.0\nbridge:\n  batch: 3.0\n" + """\
mmcf:
  weights: [0.4, 0.3, 0.2, 0.1]
  space: {redundancy: [0.0, 1.0]}
"""
        scenario = load_scenario(write(tmp_path, text))
        assert scenario.seed == 2 and isinstance(scenario.seed, int)
        assert scenario.endpoint.batch_size == 3 and isinstance(scenario.endpoint.batch_size, int)
        assert [c.redundancy for c in scenario.mmcf.space] == [0, 1]

    def test_traffic_for_rejects_two_templates_naming_one_topic(self, tmp_path):
        text = MINIMAL + """\
agents:
  count: 1
  topics:
    - {name: "/r{i}/pose", kind: pose, rate: 1.0, size: 8}
    - {name: "/r2/pose", kind: pose, rate: 1.0, size: 8}
"""
        scenario = load_scenario(write(tmp_path, text))
        assert [t.topic for t in scenario.traffic_for()] == ["/r1/pose", "/r2/pose"]
        with pytest.raises(ScenarioParseError) as err:
            scenario.traffic_for(2)
        assert err.value.problems == [
            "agents.topics[0].name (line 7): agent 2 of 2 gets '/r2/pose', "
            "which agents.topics[1].name (line 8) names for agent 1"
        ]

    def test_baseline_bridge_scenario_disables_features(self, tmp_path):
        text = MINIMAL + """\
agents:
  count: 1
  topics:
    - {name: "/r{i}/pose", kind: pose, rate: 1.0, size: 8}
"""
        scenario = load_scenario(write(tmp_path, text))
        baseline = scenario.bridge_scenario(baseline=True)
        assert baseline.endpoint.prioritized is False
        # redundancy is 0 outside the MMCF search, so the baseline sends no duplicate copies either
        assert baseline.endpoint.redundancy == 0


class TestPolicy:
    def test_tier_names(self, tmp_path):
        text = MINIMAL + "policy:\n  default: bulk\n  rules:\n    - {pattern: /a, tier: critical}\n"
        policy = load_scenario(write(tmp_path, text)).policy
        assert policy.classify("/a") == TIER_CRITICAL
        assert policy.classify("/b") == TIER_BULK

    @pytest.mark.parametrize("tier", ["super", "0"], ids=["unknown-name", "number"])
    def test_a_tier_that_is_not_a_tier_name_is_rejected(self, tmp_path, tier):
        text = MINIMAL + f"policy:\n  rules:\n    - {{pattern: /a, tier: {tier}}}\n"
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, text))
        [problem] = err.value.problems
        assert problem.startswith("policy.rules[0].tier (line 6): "), problem

    def test_policy_section(self, tmp_path):
        text = MINIMAL + (
            "policy:\n"
            "  default: standard\n"
            "  rules:\n"
            "    - {pattern: '/cmd/*', tier: critical}\n"
            "    - {pattern: '/lidar/*', tier: bulk}\n"
        )
        policy = load_scenario(write(tmp_path, text)).policy
        assert policy.classify("/cmd/stop") == TIER_CRITICAL
        assert policy.classify("/lidar/points") == TIER_BULK
        assert policy.classify("/misc") == TIER_STANDARD


class TestDiagnostics:
    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, "name: x\n"))
        joined = "\n".join(err.value.problems)
        assert "seed" in joined and "duration" in joined

    def test_line_numbers_in_messages(self, tmp_path):
        text = "name: x\nseed: 1\nduration: 5.0\nnetwork:\n  loss: 1.5\n"
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, text))
        assert any("network.loss" in p and "line 5" in p for p in err.value.problems)

    def test_bad_topic_kind_reports_path(self, tmp_path):
        text = MINIMAL + """\
agents:
  count: 1
  topics:
    - {name: "/a", kind: warble, rate: 1.0, size: 8}
"""
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, text))
        assert any("agents.topics[0].kind" in p for p in err.value.problems)

    @pytest.mark.parametrize(
        "text, path",
        [
            ("name: x\nseed: 2.5\nduration: 5.0\n", "seed (line 2)"),
            (MINIMAL + "agents:\n  count: 1.7\n  topics:\n"
             "    - {name: \"/a{i}\", kind: pose, rate: 1.0, size: 8}\n", "agents.count (line 5)"),
            (MINIMAL + "agents:\n  count: 1\n  topics:\n"
             "    - {name: \"/a{i}\", kind: pose, rate: 1.0, size: 64.9}\n", "agents.topics[0].size (line 7)"),
        ],
        ids=["seed", "agents.count", "size"],
    )
    def test_a_fractional_count_is_an_error_not_truncated(self, tmp_path, text, path):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, text))
        assert [p for p in err.value.problems if p.startswith(path)], err.value.problems

    def test_an_integer_past_float_precision_loads_exactly(self, tmp_path):
        # 2**60 + 1 and sys.maxsize both round to a neighbour through a float
        text = "name: x\nseed: 1152921504606846977\nduration: 5.0\nbridge:\n  replay_capacity: 9223372036854775807\n"
        scenario = load_scenario(write(tmp_path, text))
        assert scenario.seed == 2**60 + 1
        assert scenario.endpoint.replay_capacity == 2**63 - 1

    @pytest.mark.parametrize(
        "section, path",
        [
            ("agents:\n  count: {n}\n  topics: []\n", "agents.count (line 5)"),
            ("bridge:\n  batch: {n}\n", "bridge.batch (line 5)"),
            ("bridge:\n  replay_attempts: {n}\n", "bridge.replay_attempts (line 5)"),
            ("mmcf:\n  weights: [0.4, 0.3, 0.2, 0.1]\n  space: {{batch: [1, {n}]}}\n", "mmcf.space.batch (line 6)"),
        ],
        ids=["agents.count", "bridge.batch", "bridge.replay_attempts", "mmcf.space.batch"],
    )
    def test_a_401_digit_count_is_an_error_at_its_key(self, tmp_path, section, path):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, MINIMAL + section.format(n="9" * 401)))
        [problem] = err.value.problems
        assert problem == f"{path}: must be <= 9223372036854775807, got {'9' * 401}"

    @pytest.mark.parametrize("section, path, line", UNKNOWN_KEYS, ids=[path for _, path, _ in UNKNOWN_KEYS])
    def test_an_unknown_key_is_an_error_not_ignored(self, tmp_path, section, path, line):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, MINIMAL + section))
        [problem] = err.value.problems
        prefix = f"{path} (line {line}): unknown key; expected one of ["
        assert problem.startswith(prefix), problem
        expected = yaml.safe_load(problem[len(prefix) - 1:])
        assert path.rsplit(".", 1)[-1] not in expected and expected == sorted(expected)

    def test_yaml_syntax_error_carries_line(self, tmp_path):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, "name: [unclosed\nseed: 1\n"))
        assert "line" in err.value.problems[0]

    def test_multiple_problems_collected(self, tmp_path):
        text = "name: x\nseed: 1\nduration: -3\nnetwork:\n  loss: 2.0\n  bandwidth: -5\n"
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, text))
        assert len(err.value.problems) >= 3


class TestShippedScenarios:
    @pytest.mark.parametrize(
        "filename",
        [
            "sync_default.yaml",
            "sync_disconnect.yaml",
            "sync_latency200.yaml",
            "bridge_sweep.yaml",
            "bridge_loss.yaml",
            "bridge_outage.yaml",
            "mmcf_default.yaml",
            "agents20.yaml",
        ],
    )
    def test_parses(self, filename):
        scenario = load_scenario(SCENARIOS / filename)
        assert scenario.duration > 0

    @pytest.mark.parametrize(
        "filename, old, new",
        [(path.name, "", "") for path in sorted(SCENARIOS.glob("*.yaml"))]
        + [
            # the largest benchmark loads: replay_loss at 300 sim-s, agents20 at 1 000 agents
            ("bridge_loss.yaml", "duration: 30.0\n", "duration: 300.0\n"),
            ("agents20.yaml", "  count: 20\n", "  count: 1000\n"),
        ],
    )
    def test_no_shipped_or_benchmarked_run_comes_within_8_times_the_step_limit(
        self, tmp_path, monkeypatch, filename, old, new
    ):
        text = (SCENARIOS / filename).read_text(encoding="utf-8")
        assert old in text
        monkeypatch.setattr(scenario_module, "MAX_STEPS", scenario_module.MAX_STEPS // 8)
        load_scenario(write(tmp_path, text.replace(old, new, 1)))

    def test_mmcf_space_is_24_configs(self):
        scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
        assert len(scenario.mmcf.space) == 24
        probes = scenario.mmcf.probe_configs()
        assert len(probes) == 6
        assert set(probes) <= set(scenario.mmcf.space)


def test_readme_sync_key_table_names_every_sync_key():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("The `sync:` section sets fields", 1)[1].split("\n\n", 2)[1]
    named = set()
    for row in table.splitlines()[2:]:  # after the header and the rule
        keys = re.sub(r"\([^)]*\)", "", row.split("|")[1])  # drop notes such as (`[kp, kd]` rows)
        named.update(re.findall(r"`(\w+)", keys))
    assert named == set(_SYNC_KEYS)


def _leaf_paths(node, path=()):
    """Key/index path of every scalar and empty container in a loaded YAML document."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


SHIPPED = {p.name: yaml.safe_load(p.read_text(encoding="utf-8")) for p in sorted(SCENARIOS.glob("*.yaml"))}
LEAVES = [(name, path) for name, doc in SHIPPED.items() for path in _leaf_paths(doc)]
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


# Caps on what one run may cost. Each lowers a value that loaded to one that
# still loads, so it bounds the work of a run, never which keys are checked.
# A value past a cap, such as `duration: 1.0e+300`, runs at the cap: a run
# that long is out of scope here.
MAX_DURATION = 5.0  # simulated seconds; a drain that would reach it is halved below it
MAX_AGENTS = 20
MAX_RATE = 100.0  # messages per second per topic
MAX_SIZE = 1 << 20  # bytes per message, so the payloads of 20 agents stay small


def _capped(doc: dict) -> dict:
    """doc, which loads, with the caps above applied."""
    doc["duration"] = min(doc["duration"], MAX_DURATION)
    bridge = doc.get("bridge") or {}
    if bridge.get("drain") is not None and bridge["drain"] >= doc["duration"]:
        bridge["drain"] = doc["duration"] / 2
    agents = doc.get("agents")
    if agents is not None:
        agents["count"] = min(agents["count"], MAX_AGENTS)
        for topic in agents["topics"]:
            topic["rate"] = min(topic["rate"], MAX_RATE)
            topic["size"] = min(topic["size"], MAX_SIZE)
    return doc


@given(leaf=st.sampled_from(LEAVES), value=ANY_VALUE)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_single_leaf_replacement_loads_or_reports(tmp_path, leaf, value):
    # a case that loads must also run: exit 0, or exit 2 with error: lines only
    name, path = leaf
    doc = copy.deepcopy(SHIPPED[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        load_scenario(write(tmp_path, yaml.safe_dump(doc, allow_unicode=True)))
    except ScenarioParseError as exc:
        assert exc.problems
        return
    scenario = write(tmp_path, yaml.safe_dump(_capped(doc), allow_unicode=True))
    result = CliRunner().invoke(main, ["run", str(scenario), "--out-dir", str(tmp_path / "out")])
    if result.exit_code == 2:
        lines = result.output.splitlines()
        assert lines and all(line.startswith("error: ") for line in lines), result.output
    else:
        assert result.exit_code == 0, "".join(traceback.format_exception(*result.exc_info))
