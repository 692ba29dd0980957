"""End-to-end runs: determinism, conservation, comparison, sweep, CLI."""

import filecmp
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbridge import runner
from twinbridge.bridge import BridgeEndpoint
from twinbridge.cli import main
from twinbridge.runner import TOPICS_HEADER, compare, load_report, run, sweep_agents, sync_gain_comparison
from twinbridge.scenario import Scenario, load_scenario
from twinbridge.twinsync import SyncReport

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# (path, value) of each former key that is now a module constant, because no scenario set
# it to anything but its default, or that other keys decide: a non-empty gain_grid turns
# gain scheduling on, and its rollout uses the plant's mass
CONSTANT_KEYS = [
    ("sync.terrain", "default"),
    ("sync.t_ref", 10.0),
    ("sync.cap_factor", 4.0),
    ("sync.heading_gain", 1.0),
    ("sync.accuracy_weight", 0.8),
    ("sync.energy_weight", 0.2),
    ("bridge.sub_capacity", 4096),
    ("bridge.replay_retry", 0.3),
    ("sync.adaptive_gains", "true"),
    ("sync.response_mass", 10.0),
    # the sync loop's timing is twinsync's TICK, UPDATE_PERIOD and GAIN_WINDOW, and its
    # plant is drag-only; the values are ones that once overflowed or were shipped
    ("sync.tick", "5.0e-324"),
    ("sync.update_rate", "1.0e+300"),
    ("sync.gain_window", "1.0e+300"),
    ("sync.friction", 0.0),
    # the bridge ticks every bridge.TICK s, and sends no duplicate copies outside the
    # MMCF search; the tick is one that once passed the step limit
    ("bridge.tick", "1.0e-9"),
    ("bridge.redundancy", 2),
]


def edited(name: str, old: str, new: str) -> str:
    """The text of a shipped scenario with its first `old` replaced by `new`."""
    text = (SCENARIOS / name).read_text(encoding="utf-8")
    assert old in text
    return text.replace(old, new, 1)


# one agent whose one topic publishes every 1 / 22 s (about 0.045 s), for a given duration
SHORT_TRAFFIC = (
    'name: short\nseed: 1\nduration: {duration}\nagents:\n  count: 1\n  topics:\n'
    '    - {{name: "/robot{{i}}/pose", kind: pose, rate: 22.0, size: 8}}\n'
)


def assert_refused_before_running(tmp_path, monkeypatch, text: str, expected: str) -> None:
    """`twinbridge run` on text exits 2 with the one line `error: {expected}`, and no run starts."""
    scenario = tmp_path / "refused.yaml"
    scenario.write_text(text, encoding="utf-8")
    runs = []
    monkeypatch.setattr("twinbridge.runner.run_traffic", lambda *args: runs.append(args))
    monkeypatch.setattr("twinbridge.runner.run_sync_loop", lambda *args: runs.append(args))
    result = CliRunner().invoke(main, ["run", str(scenario)])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"error: {expected}"]
    assert runs == []


@pytest.fixture(scope="module")
def sweep_scenario():
    return load_scenario(SCENARIOS / "bridge_sweep.yaml")


@pytest.fixture(scope="module")
def sweep_report(sweep_scenario):
    return run(sweep_scenario)


class TestRun:
    def test_zero_agent_scenario(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text(
            "name: empty\nseed: 1\nduration: 2.0\n"
            "agents:\n  count: 0\n  topics:\n"
            "    - {name: '/r{i}/pose', kind: pose, rate: 1.0, size: 8}\n",
            encoding="utf-8",
        )
        report = run(path)
        assert report.summary["sent"] == 0
        assert report.topic_rows == []

    def test_conservation_per_topic(self, sweep_report):
        for row in sweep_report.topic_rows:
            topic, tier, sent, delivered, dropped, buffered = row[:6]
            assert sent == delivered + dropped + buffered, topic

    def test_delivered_never_exceeds_sent(self, sweep_report):
        for row in sweep_report.topic_rows:
            assert row[3] <= row[2]

    def test_byte_identical_artifacts_across_runs(self, sweep_scenario, tmp_path):
        run(sweep_scenario, out_dir=tmp_path / "a")
        run(sweep_scenario, out_dir=tmp_path / "b")
        for name in ("topics.csv", "tiers.csv", "summary.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    @pytest.mark.parametrize("scenario", sorted(path.name for path in SCENARIOS.glob("*.yaml")))
    def test_artifacts_independent_of_hash_seed(self, tmp_path, scenario):
        src = str(SCENARIOS.parent / "src")
        for hash_seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "twinbridge.cli", "run", str(SCENARIOS / scenario),
                 "--out-dir", str(tmp_path / hash_seed)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True, check=True,
            )
        names = sorted(path.name for path in (tmp_path / "1").glob("*.csv"))
        assert names == sorted(path.name for path in (tmp_path / "2").glob("*.csv"))
        assert "topics.csv" in names
        for name in names:
            assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False), name

    @pytest.mark.parametrize("scenario", ["sync_default.yaml", "sync_disconnect.yaml", "sync_latency200.yaml"])
    def test_sync_artifacts_independent_of_blas_kernel(self, tmp_path, scenario):
        # OpenBLAS picks its kernel by CPU; Prescott, its oldest x86-64 kernel, has no
        # fused multiply-add, so a result that went through BLAS differs on an FMA host
        src = str(SCENARIOS.parent / "src")
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        for name, extra in (("host", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
            subprocess.run(
                [sys.executable, "-m", "twinbridge.cli", "run", str(SCENARIOS / scenario),
                 "--out-dir", str(tmp_path / name)],
                env=dict(env, PYTHONPATH=src, **extra),
                capture_output=True, check=True,
            )
        names = sorted(path.name for path in (tmp_path / "host").glob("*.csv"))
        assert names == sorted(path.name for path in (tmp_path / "prescott").glob("*.csv"))
        assert "sync.csv" in names
        for name in names:
            assert filecmp.cmp(tmp_path / "host" / name, tmp_path / "prescott" / name, shallow=False), name

    def test_sync_csv_written(self, tmp_path):
        report = run(SCENARIOS / "sync_default.yaml", out_dir=tmp_path)
        assert (tmp_path / "sync.csv").exists()
        header = (tmp_path / "sync.csv").read_text().splitlines()[0]
        assert header == "t,e_pos,e_rot,bound,kp,kd,corrected"
        assert report.sync is not None

    def test_gain_comparison_holds_each_fixed_run_at_its_candidate(self):
        scenario = load_scenario(SCENARIOS / "sync_disconnect.yaml")
        grid = scenario.sync.controller.gain_grid
        adaptive, fixed = sync_gain_comparison(scenario)
        assert sorted(fixed) == sorted(grid)
        for gains, report in fixed.items():
            assert set(zip(report.kp, report.kd)) == {gains}
        assert set(zip(adaptive.kp, adaptive.kd)) == set(grid)


class TestCompare:
    def test_identical_reports_all_zero(self, sweep_report):
        rows = compare(sweep_report, sweep_report)
        assert rows
        assert all(row.delta == 0.0 for row in rows)

    def test_mode_difference_one_signed_for_critical_latency(self, sweep_scenario):
        on = run(sweep_scenario)
        off = run(sweep_scenario, baseline=True)
        rows = compare(on, off)
        crit = [r for r in rows if r.scope == "tier:critical" and r.metric == "lat_p95"]
        assert crit and crit[0].delta > 0  # baseline is slower

    def test_identity_mismatch_rejected(self, sweep_scenario, tmp_path):
        a = run(sweep_scenario)
        b = run(sweep_scenario, seed=999)
        with pytest.raises(ValueError):
            compare(a, b)

    def test_report_roundtrip_through_csv(self, sweep_scenario, tmp_path):
        report = run(sweep_scenario, out_dir=tmp_path)
        loaded = load_report(tmp_path)
        assert loaded.name == report.name
        assert loaded.seed == report.seed
        assert len(loaded.topic_rows) == len(report.topic_rows)
        rows = compare(report, loaded)
        assert all(abs(row.delta) < 1e-9 for row in rows)

    def test_a_seed_past_float_precision_roundtrips_through_csv(self, tmp_path):
        from twinbridge.runner import RunReport

        seed = 2**60 + 1  # a float holds 2**60 at best
        report = RunReport("x", seed, "prioritized", summary={"name": "x", "seed": seed, "mode": "prioritized"})
        report.write_csvs(tmp_path)
        assert load_report(tmp_path).seed == seed

    def test_dominating_report_gives_one_signed_deltas(self):
        from twinbridge.runner import RunReport

        better = RunReport("x", 1, "prioritized")
        worse = RunReport("x", 1, "fifo")
        better.topic_rows = [("/a", "critical", 10, 10, 0, 0, 100, 0.01, 0.02, 0.03)]
        worse.topic_rows = [("/a", "critical", 10, 8, 2, 0, 100, 0.05, 0.08, 0.09)]
        rows = compare(better, worse)
        lat = [r for r in rows if r.metric.startswith("lat_")]
        assert lat and all(r.delta > 0 for r in lat)
        dropped = [r for r in rows if r.metric == "dropped"]
        assert dropped and all(r.delta > 0 for r in dropped)
        delivered = [r for r in rows if r.metric == "delivered"]
        assert delivered and all(r.delta < 0 for r in delivered)

    def test_deltas_match_hand_computed_ratios(self, sweep_scenario, tmp_path):
        run(sweep_scenario, out_dir=tmp_path / "on")
        run(sweep_scenario, baseline=True, out_dir=tmp_path / "off")
        a = load_report(tmp_path / "on")
        b = load_report(tmp_path / "off")
        rows = {(r.scope, r.metric): r for r in compare(a, b)}
        # recompute one relative delta per topic straight from the CSV text
        import csv as _csv

        with open(tmp_path / "on" / "topics.csv", encoding="utf-8") as fh:
            on_rows = {row["topic"]: row for row in _csv.DictReader(fh)}
        with open(tmp_path / "off" / "topics.csv", encoding="utf-8") as fh:
            off_rows = {row["topic"]: row for row in _csv.DictReader(fh)}
        for topic in on_rows:
            a_val = float(on_rows[topic]["lat_p95"])
            b_val = float(off_rows[topic]["lat_p95"])
            if a_val == 0.0:
                continue
            expected = (b_val - a_val) / a_val
            assert rows[(f"topic:{topic}", "lat_p95")].relative == pytest.approx(expected)


class TestSweep:
    def test_single_count(self, sweep_scenario):
        result = sweep_agents(sweep_scenario, [1])
        assert len(result.rows) == 1
        assert result.rows[0][0] == 1

    def test_monotone_traffic(self, sweep_scenario):
        result = sweep_agents(sweep_scenario, [2, 3, 5])
        bytes_col = [row[4] for row in result.rows]
        assert bytes_col == sorted(bytes_col)
        sent_col = [row[1] for row in result.rows]
        assert sent_col == sorted(sent_col)

    def test_matches_independent_runs(self, sweep_scenario):
        # composition check: each row equals a direct engine run at that count
        from twinbridge.engine import run_traffic

        result = sweep_agents(sweep_scenario, [2, 3])
        for count, row in zip(result.counts, result.rows):
            direct = run_traffic(sweep_scenario.bridge_scenario(count=count))
            sent, delivered, _, _ = direct.totals()
            assert row[1] == sent
            assert row[2] == delivered

    def test_counts_must_ascend(self, sweep_scenario):
        with pytest.raises(ValueError):
            sweep_agents(sweep_scenario, [3, 2])
        with pytest.raises(ValueError):
            sweep_agents(sweep_scenario, [])


def _drop_the_last_field_of_row_two(text: str) -> str:
    header, row, rest = text.split("\n", 2)
    return "\n".join([header, row.rsplit(",", 1)[0], rest])


class TestCli:
    def test_run_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["run", str(SCENARIOS / "bridge_sweep.yaml"), "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert "sent:" in result.output
        assert (tmp_path / "out" / "topics.csv").exists()

    def test_run_rejects_bad_scenario(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_compare_command(self, tmp_path):
        runner = CliRunner()
        runner.invoke(
            main, ["run", str(SCENARIOS / "bridge_sweep.yaml"), "--out-dir", str(tmp_path / "a")]
        )
        runner.invoke(
            main,
            ["run", str(SCENARIOS / "bridge_sweep.yaml"), "--baseline", "--out-dir", str(tmp_path / "b")],
        )
        result = runner.invoke(main, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert result.exit_code == 0, result.output
        assert "tier:critical" in result.output

    def test_sweep_command(self, tmp_path):
        result = CliRunner().invoke(
            main,
            [
                "sweep", str(SCENARIOS / "bridge_sweep.yaml"),
                "--counts", "1,2", "--out-dir", str(tmp_path / "sweep"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert (tmp_path / "sweep" / "agents_2" / "topics.csv").exists()

    def test_run_command_prints_the_mmcf_pick(self, tmp_path):
        scenario = tmp_path / "tiny_mmcf.yaml"
        scenario.write_text(
            "name: tiny\nseed: 2\nduration: 3.0\n"
            "network:\n  latency: 0.02\n  loss: 0.1\n  bandwidth: 60000\n"
            "bridge:\n  drain: 1.0\n"
            "policy:\n  default: standard\n"
            "  rules:\n    - {pattern: '/*/pose', tier: critical}\n"
            "agents:\n  count: 1\n  topics:\n"
            "    - {name: '/r{i}/pose', kind: pose, rate: 10.0, size: 64}\n"
            "mmcf:\n  weights: [0.4, 0.3, 0.2, 0.1]\n"
            "  space:\n    redundancy: [0, 1]\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main, ["run", str(scenario), "--out-dir", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output
        printed = [line.partition(":")[0] for line in result.output.splitlines() if line.startswith("mmcf_")]
        assert printed == ["mmcf_best", "mmcf_best_cost", "mmcf_clamp_events", "mmcf_evaluated_fraction"]
        assert (tmp_path / "out" / "mmcf.csv").exists()

    @pytest.mark.parametrize("command", sorted(set(main.commands) - {"compare"}))
    def test_every_scenario_command_reports_errors_by_line(self, tmp_path, command):
        # compare reads run directories, not scenarios; every other command
        # must report scenario errors as diagnostics, never as a traceback
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            (SCENARIOS / "mmcf_default.yaml").read_text(encoding="utf-8").replace(
                "rate: 10.0", "rate: -1.0"
            ),
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, [command, str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert lines and all(line.startswith("error: ") for line in lines)
        assert any("rate (line " in line and "must be positive" in line for line in lines)

    @pytest.mark.parametrize(
        "body",
        [
            "duration: 5.0\nsync:\n  gain_grid: [[1.0, 2.0, 3.0]]\n",
            "duration: 5.0\nsync:\n  force_script: [[0.0, x, 0.0, 0.0]]\n",
            "duration: 5.0\nsync:\n  drag: [1, 2]\n",
            "duration: 5.0\nsync:\n  drag: {default: -0.5}\n",
            "duration: 5.0\nsync:\n  drag: -0.5\n",
            "duration: 5.0\nsync:\n  bound: 5\n",
            "duration: 5.0\nnetwork:\n  latency: [[0.0, abc]]\n",
            "duration: 5.0\nnetwork:\n  disconnects: [[a, 1.0]]\n",
            "duration: 5.0\nbridge:\n  shares: 0.5\n",
            "duration: .inf\n",
            "duration: 5.0\nsync:\n  mass: .nan\n",
            "duration: 5.0\nnote: !!bool maybe\n",
            "duration: 5.0\nnote: \"\x01\"\n",  # a character YAML does not allow
            "duration: 5.0\nnote: \udcff\n",  # a byte that is not UTF-8
            "duration: 5.0\npolicy:\n  rules: [{pattern: 5, tier: critical}]\n",
            "duration: 5.0\nbridge:\n  discovery: {enabled: \"false\"}\n",
            "duration: 5.0\nsync:\n  adaptive_gains: \"false\"\n",
            "duration: 5.0\nmmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {shares: [[.nan, 0.3, 0.1]]}\n",
            "duration: 5.0\nmmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {discovery_period: [.nan]}\n",
            "duration: 5.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot {i}/pose\", kind: pose, rate: 5.0, size: 8}\n",
            "duration: 5.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n"
            "    - {name: \"/robot{i}/pose\", kind: scan2d, rate: 5.0, size: 8}\n",
            "duration: 5.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n",
            "duration: 5.0\nagents:\n  count: 2\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n"
            "    - {name: \"/robot1/pose\", kind: scan2d, rate: 5.0, size: 8}\n",
            "duration: 5.0\nagents:\n  count: 2\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n"
            "    - {name: \"/robot1/pose\", kind: pose, rate: 5.0, size: 8}\n",
            "duration: 5.0\nbridge:\n  shares: [0.9, 0.9, 0.9]\n",
            "duration: 5.0\nbridge:\n  batch: 2.9\n",
            "duration: 5.0\nmmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {redundancy: [0.7, 1]}\n",
            "duration: 5.0\nmmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {discovery_period: [\"0.5\", \"0.25\"]}\n",
            "duration: 5.0\nsycn:\n  mass: 10.0\n",  # a misspelt section runs nothing
            "duration: 5.0\nbridge:\n  replay_capacty: 8\n",  # a misspelt knob keeps its default
            # a count past what its consumer takes: one byte over a frame's
            # payload, past a bytes repeat, past a deque's maxlen
            "duration: 5.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 16777217}\n",
            "duration: 5.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 9223372036854775808}\n",
            "duration: 5.0\nbridge:\n  replay_capacity: 9223372036854775808\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n",
            "duration: 2.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n"
            "mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {replay_capacity: [8, 9223372036854775808]}\n",
        ],
    )
    def test_bad_value_is_an_error_line_not_a_traceback(self, tmp_path, body):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(("name: bad\nseed: 1\n" + body).encode("utf-8", "surrogateescape"))
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert lines and all(line.startswith("error: ") and "(line " in line for line in lines)

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("sync:\n  drag: -0.5\n", ["sync.drag (line 5): must be >= 0.0, got -0.5"]),
            (
                "sync:\n  drag: {default: 0.0}\n",
                ["sync.drag (line 5): expected a finite number, got {'default': 0.0}"],
            ),
            (
                "bridge:\n  replay_capacity: 9223372036854775808\n",
                ["bridge.replay_capacity (line 5): must be <= 9223372036854775807, got 9223372036854775808"],
            ),
            (
                "sync:\n  gain_grid: [[-1.0, 2.0], [3.0, 4.0]]\n",
                ["sync.gain_grid[0] (line 5): expected [kp, kd], each >= 0"],
            ),
            (
                "mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n"
                "  space: {redundancy: [0, 5], batch: [0, 2], replay_capacity: [9223372036854775808]}\n",
                [
                    "mmcf.space.batch (line 6): must be >= 1, got 0",
                    "mmcf.space.redundancy (line 6): must be <= 3, got 5",
                    "mmcf.space.replay_capacity (line 6): must be <= 9223372036854775807, got 9223372036854775808",
                ],
            ),
            (
                "mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n  space: {batch: [1, \"x\"]}\n",
                ["mmcf.space.batch (line 6): expected a list of integers, got [1, 'x']"],
            ),
            (
                "agents:\n  count: 1\n  topics:\n    - {name: /a, kind: pose, rate: 1.0, size: 16777217}\n",
                ["agents.topics[0].size (line 7): must be <= 16777216, got 16777217"],
            ),
            (
                # geodesy is a library that criterion 7 checks; no scenario key reaches it
                "geo:\n  reference: [39.25, -76.71, 10.0]\n",
                [
                    "geo (line 4): unknown key; expected one of "
                    "['agents', 'bridge', 'duration', 'mmcf', 'name', 'network', 'policy', 'seed', 'sync']"
                ],
            ),
            (
                # the sync loop starts the agent and the twin from one state, so the initial error is 0
                "sync:\n  bound: {lipschitz: 0.8, delta: 0.8, e0: 0.0}\n",
                ["sync.bound.e0 (line 5): unknown key; expected one of ['delta', 'lipschitz']"],
            ),
        ],
        ids=[
            "negative-drag", "drag-as-a-mapping", "replay-capacity", "negative-gain",
            "mmcf-space-axes", "mmcf-space-value-not-a-number", "size-over-max-payload", "geo-section",
            "sync-bound-e0",
        ],
    )
    def test_each_problem_is_reported_at_its_own_key(self, tmp_path, body, expected):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: bad\nseed: 1\nduration: 5.0\n" + body, encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert sorted(result.output.splitlines()) == [f"error: {line}" for line in expected]

    @pytest.mark.parametrize("path, value", CONSTANT_KEYS, ids=[path for path, _ in CONSTANT_KEYS])
    def test_a_constant_tuning_value_is_not_a_key(self, tmp_path, path, value):
        section, key = path.split(".")
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"name: bad\nseed: 1\nduration: 1.0\n{section}:\n  {key}: {value}\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        [line] = result.output.splitlines()
        assert line.startswith(f"error: {path} (line 5): unknown key; expected one of ["), line

    def test_the_probe_count_is_not_a_key(self, tmp_path):
        # the MMCF search calibrates on scenario.PROBES configurations; weights is required beside it
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: bad\nseed: 1\nduration: 1.0\nmmcf:\n  weights: [0.4, 0.3, 0.2, 0.1]\n  probes: 2\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        [line] = result.output.splitlines()
        assert line.startswith("error: mmcf.probes (line 6): unknown key; expected one of ["), line

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                edited("bridge_loss.yaml", "kind: pose, rate: 10.0,", "kind: pose, rate: 1.0e+12,"),
                "agents.count (line 27): 2 agents publish 4.4e+13 messages; a run takes at most 500000",
            ),
            (
                edited("agents20.yaml", "  count: 20\n", "  count: 100000\n"),
                "agents.count (line 26): 100000 agents publish 6e+06 messages; a run takes at most 500000",
            ),
            (
                edited("sync_default.yaml", "duration: 40.0\n", "duration: 1.0e+7\n"),
                "duration (line 5): duration / TICK is 1e+09 sync ticks; a run takes at most 500000",
            ),
            (
                # the bridge ticks every bridge.TICK = 0.02 s
                "name: long\nseed: 1\nduration: 1.0e+7\n",
                "duration (line 3): duration / bridge.TICK is 5e+08 bridge ticks; a run takes at most 500000",
            ),
        ],
        ids=["huge-rate", "huge-agent-count", "huge-duration-with-sync", "huge-duration"],
    )
    def test_a_run_past_the_step_limit_is_an_error_at_the_key(self, tmp_path, monkeypatch, text, expected):
        # each of these loaded and then ran for hours or more; none may start
        assert_refused_before_running(tmp_path, monkeypatch, text, expected)

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                # 2 bridge ticks, to 0.04 s: the publish due at about 0.045 s would never go out
                SHORT_TRAFFIC.format(duration="0.05"),
                "duration (line 3): duration 0.05 is not a whole number of bridge.TICK (0.02 s)",
            ),
            (
                # no bridge tick at all
                SHORT_TRAFFIC.format(duration="0.01"),
                "duration (line 3): duration 0.01 is not a whole number of bridge.TICK (0.02 s)",
            ),
            (
                edited("agents20.yaml", "duration: 10.0\n", "duration: 10.01\n"),
                "duration (line 6): duration 10.01 is not a whole number of bridge.TICK (0.02 s)",
            ),
            (
                edited("sync_default.yaml", "duration: 40.0\n", "duration: 40.005\n"),
                "duration (line 5): duration 40.005 is not a whole number of twinsync.TICK (0.01 s)",
            ),
        ],
        ids=["between-bridge-ticks", "below-one-bridge-tick", "agents20-between-ticks", "between-sync-ticks"],
    )
    def test_a_duration_between_ticks_is_an_error_at_the_key(self, tmp_path, monkeypatch, text, expected):
        assert_refused_before_running(tmp_path, monkeypatch, text, expected)

    @pytest.mark.parametrize(
        "duration, text",
        [
            (0.06, SHORT_TRAFFIC.format(duration="0.06")),
            (30.02, edited("bridge_loss.yaml", "duration: 30.0\n", "duration: 30.02\n")),
            # a sync-only run takes sync ticks alone, so half a bridge tick is whole
            (40.01, edited("sync_default.yaml", "duration: 40.0\n", "duration: 40.01\n")),
        ],
        ids=["three-bridge-ticks", "bridge-loss-one-tick-longer", "sync-only-between-bridge-ticks"],
    )
    def test_a_duration_of_whole_ticks_loads(self, tmp_path, duration, text):
        scenario = tmp_path / "whole.yaml"
        scenario.write_text(text, encoding="utf-8")
        assert load_scenario(scenario).duration == duration

    def test_a_drag_the_integrator_cannot_take_is_an_error_at_the_key(self, tmp_path):
        # drag * TICK / mass = 1e6 * 0.01 / 10 = 1000: each tick would scale the velocity by -999
        text = (SCENARIOS / "sync_latency200.yaml").read_text(encoding="utf-8")
        assert text.splitlines()[12] == "  drag: 1.5"
        scenario = tmp_path / "drag.yaml"
        scenario.write_text(text.replace("  drag: 1.5\n", "  drag: 1000000.0\n"), encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(scenario), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        [line] = result.output.splitlines()
        assert line == "error: sync.drag (line 13): drag * TICK / mass is 1000.0 with TICK = 0.01 s; it must be below 2"

    def test_a_sync_state_that_stops_being_finite_is_an_error_not_a_traceback(self, tmp_path):
        # kp = 100000 on stale feedback drives the twin past float range 29.36 s into the run
        text = (SCENARIOS / "sync_latency200.yaml").read_text(encoding="utf-8")
        assert text.splitlines()[13] == "  kp: 40.0"
        scenario = tmp_path / "kp.yaml"
        scenario.write_text(text.replace("  kp: 40.0\n", "  kp: 100000.0\n"), encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(scenario), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        [line] = result.output.splitlines()
        assert line == "error: sync: the state is not finite at t=29.36 s"

    def test_an_envelope_past_float_range_is_no_bound_not_a_traceback(self, tmp_path):
        # K*t passes 709.78 at t = 7.1 s, where exp(K*t) overflows a float
        text = (SCENARIOS / "sync_default.yaml").read_text(encoding="utf-8")
        scenario = tmp_path / "k100.yaml"
        scenario.write_text(
            text.replace("duration: 40.0", "duration: 8.0").replace("lipschitz: 0.8", "lipschitz: 100.0"),
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["run", str(scenario), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "sync_bound_violations: 0" in result.output.splitlines()
        last = (tmp_path / "out" / "sync.csv").read_text(encoding="utf-8").splitlines()[-1]
        assert last.split(",")[3] == "-1.0"  # sync.csv writes a non-finite bound as -1.0

    @pytest.mark.parametrize(
        "policy, expected",
        [
            ("  rules: [{pattern: /a}]\n", "error: policy.rules[0] (line 5): missing required key 'tier'"),
            ("  rules: null\n", "error: policy.rules (line 5): expected list, got NoneType"),
        ],
        ids=["rule-without-tier", "null-rules"],
    )
    def test_policy_errors_name_the_rule(self, tmp_path, policy, expected):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: bad\nseed: 1\nduration: 5.0\npolicy:\n" + policy, encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [expected]

    @pytest.mark.parametrize(
        "name, count",
        [
            ("/" + "a" * 70000, 1),
            ("/robot\\ud800", 1),
            ("/" + "a" * 65533 + "{i}", 10),
            ("/" + "a" * 65500 + " {i}", 1),
        ],
        ids=["over-65535-utf-8-bytes", "no-utf-8-form", "over-65535-utf-8-bytes-at-agent-10", "whitespace"],
    )
    def test_a_topic_the_wire_cannot_carry_is_one_error_line(self, tmp_path, name, count):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            f"name: bad\nseed: 1\nduration: 2.0\nagents:\n  count: {count}\n  topics:\n"
            f"    - {{name: \"{name}\", kind: pose, rate: 5.0, size: 8}}\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output[:500]
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: agents.topics[0].name (line 7): ")
        assert len(lines[0]) < 200

    @pytest.mark.parametrize("name", ["/__bridge/scan{i}", "/__bridge{i}/scan", "/__bridge"])
    def test_a_template_under_the_control_prefix_is_one_error_line(self, tmp_path, monkeypatch, name):
        # control frames own every topic name that starts with /__bridge
        text = edited("bridge_loss.yaml", '"/robot{i}/scan"', f'"{name}"')
        topic = name.replace("{i}", "1")
        expected = f"template {name!r}: topic {topic!r} is under /__bridge, which the bridge reserves"
        assert_refused_before_running(tmp_path, monkeypatch, text, f"agents.topics[1].name (line 30): {expected}")

    def test_sweep_checks_every_expansion_of_a_template_before_the_first_run(self, tmp_path, monkeypatch):
        scenario = tmp_path / "long.yaml"
        scenario.write_text(
            "name: long\nseed: 1\nduration: 2.0\nagents:\n  count: 1\n  topics:\n"
            f"    - {{name: \"/{'a' * 65533}{{i}}\", kind: pose, rate: 5.0, size: 8}}\n",
            encoding="utf-8",
        )
        runs = []
        monkeypatch.setattr("twinbridge.runner.run_traffic", runs.append)
        result = CliRunner().invoke(main, ["sweep", str(scenario), "--counts", "2,10"])
        assert result.exit_code == 2, result.output[:500]
        assert result.output.splitlines() == [
            "error: agents.topics[0].name (line 7): agent 10 of 10: "
            "topic is over the wire's limit of 65535 UTF-8 bytes"
        ]
        assert runs == []

    def test_compare_of_different_scenarios_is_an_error_line(self, tmp_path):
        for name in ("a", "b"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "summary.csv").write_text(f"key,value\nname,{name}\nseed,1\n", encoding="utf-8")
            (run_dir / "topics.csv").write_text(",".join(TOPICS_HEADER) + "\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "error: reports disagree on scenario identity: a/1 vs b/1"
        ]

    def test_compare_of_a_directory_without_summary_is_an_error_line(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = CliRunner().invoke(main, ["compare", str(empty), str(empty)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read ")
        assert "summary.csv" in lines[0]

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("topics.csv", lambda text: ""),
            ("tiers.csv", lambda text: ""),
            ("summary.csv", lambda text: text.split("\n", 1)[1]),
            ("topics.csv", _drop_the_last_field_of_row_two),
        ],
        ids=["empty-topics", "empty-tiers", "summary-without-header", "short-topics-row"],
    )
    def test_compare_of_a_malformed_csv_is_an_error_line(self, tmp_path, name, damage):
        good, bad = tmp_path / "good", tmp_path / "bad"
        run(SCENARIOS / "bridge_sweep.yaml", out_dir=good)
        run(SCENARIOS / "bridge_sweep.yaml", out_dir=bad)
        path = bad / name
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        result = CliRunner().invoke(main, ["compare", str(good), str(bad)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]

    def test_sweep_checks_every_count_before_the_first_run(self, tmp_path, monkeypatch):
        scenario = tmp_path / "clash.yaml"
        scenario.write_text(
            "name: clash\nseed: 1\nduration: 5.0\nagents:\n  count: 1\n  topics:\n"
            "    - {name: \"/robot{i}/pose\", kind: pose, rate: 5.0, size: 8}\n"
            "    - {name: \"/robot2/pose\", kind: scan2d, rate: 5.0, size: 8}\n",
            encoding="utf-8",
        )
        runs = []
        monkeypatch.setattr("twinbridge.runner.run_traffic", runs.append)
        result = CliRunner().invoke(main, ["sweep", str(scenario), "--counts", "1,2"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            "error: agents.topics[0].name (line 7): agent 2 of 2 gets '/robot2/pose', "
            "which agents.topics[1].name (line 8) names for agent 1"
        ]
        assert runs == []

    def test_sweep_holds_every_count_to_the_publish_limit_before_expanding_topics(self, monkeypatch):
        # agents20.yaml publishes 60 messages per agent: 8 334 agents publish 500 040
        expansions = []
        monkeypatch.setattr(Scenario, "traffic_for", lambda scenario, count=None: expansions.append(count))
        result = CliRunner().invoke(main, ["sweep", str(SCENARIOS / "agents20.yaml"), "--counts", "50,8334"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            "error: --counts: 8334 agents publish 500040 messages; a run takes at most 500000"
        ]
        assert expansions == []

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--counts", "1,1000000000000000"]], ids=lambda c: c[0]
    )
    def test_a_huge_agent_count_with_no_topics_runs(self, tmp_path, command):
        # no template leaves nothing to expand, however many agents: each of these once never ended
        scenario = tmp_path / "empty.yaml"
        scenario.write_text(
            "name: empty\nseed: 1\nduration: 1.0\nagents:\n  count: 1000000000000000\n  topics: []\n"
            "mmcf:\n  weights: [0.25, 0.25, 0.25, 0.25]\n",
            encoding="utf-8",
        )
        out = subprocess.run(
            [sys.executable, "-m", "twinbridge.cli", command[0], str(scenario), *command[1:]],
            env=dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("counts", ["3,2", "2,2", "2,x", "-1,2", ","])
    def test_bad_sweep_counts_are_an_error_line_not_a_traceback(self, counts, monkeypatch):
        runs = []
        monkeypatch.setattr("twinbridge.runner.run_traffic", runs.append)
        result = CliRunner().invoke(main, ["sweep", str(SCENARIOS / "bridge_sweep.yaml"), "--counts", counts])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --counts {counts!r}")
        assert runs == []


@pytest.fixture
def traffic_runs(monkeypatch):
    """The scenario of each traffic run `runner` and `mmcf` simulate, in order."""
    from twinbridge import mmcf

    seen = []
    for module in (runner, mmcf):

        def counted(scenario, run_traffic=module.run_traffic):
            seen.append(scenario)
            return run_traffic(scenario)

        monkeypatch.setattr(module, "run_traffic", counted)
    return seen


def test_the_mmcf_search_reuses_the_plain_run(tmp_path, traffic_runs):
    scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
    run(scenario, out_dir=tmp_path / "run")
    assert len(traffic_runs) == 10
    # the search simulating every run itself writes the same table
    rows, _ = runner.run_mmcf_section(scenario, scenario.seed)
    fresh = runner._write_csv(tmp_path / "fresh.csv", runner.MMCF_HEADER, rows)
    assert (tmp_path / "run" / "mmcf.csv").read_bytes() == fresh.read_bytes()


def test_the_fifo_plain_run_is_no_mmcf_configuration(traffic_runs):
    scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
    report = run(scenario, baseline=True)
    assert len(traffic_runs) == 11
    assert not traffic_runs[0].endpoint.prioritized
    assert report.mmcf_rows == runner.run_mmcf_section(scenario, scenario.seed)[0]


def test_twenty_agent_scenario_smoke():
    report = run(SCENARIOS / "agents20.yaml")
    assert len(report.topic_rows) == 60
    for row in report.topic_rows:
        _, _, sent, delivered, dropped, buffered = row[:6]
        assert sent == delivered + dropped + buffered
    assert report.summary["delivered"] > 0


def test_a_seq_delivered_twice_fails_the_run(monkeypatch):
    # a receiver that republishes every seq = 7 (mod 50) twice: the audit's walk of
    # the delivery log meets the seq again, where a log keyed by seq would hide it
    republish = BridgeEndpoint._republish

    def republish_some_twice(endpoint, rx, env, at):
        republish(endpoint, rx, env, at)
        if env.seq % 50 == 7:
            republish(endpoint, rx, env, at)

    monkeypatch.setattr(BridgeEndpoint, "_republish", republish_some_twice)
    with pytest.raises(RuntimeError, match=r"^/\S+: seq 7 republished after seq 7$"):
        run(SCENARIOS / "bridge_loss.yaml")


@pytest.mark.parametrize(
    "name, redundancy, expected",
    [
        # the plain run's audit fails
        ("bridge_loss.yaml", None, r"/\S+: seq 7 republished after seq 7"),
        # the plain run (redundancy 0) passes; an MMCF evaluation at redundancy 2 fails
        ("mmcf_default.yaml", 2, r"scenario 'mmcf_default' failed under EndpointConfig\(redundancy=2, .*\): "
         r"/\S+: seq 7 republished after seq 7"),
    ],
    ids=["plain-run", "mmcf-evaluation"],
)
def test_the_cli_reports_a_failed_audit_as_one_error_line(monkeypatch, name, redundancy, expected):
    republish = BridgeEndpoint._republish

    def republish_some_twice(endpoint, rx, env, at):
        republish(endpoint, rx, env, at)
        if env.seq % 50 == 7 and redundancy in (None, endpoint.config.redundancy):
            republish(endpoint, rx, env, at)

    monkeypatch.setattr(BridgeEndpoint, "_republish", republish_some_twice)
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / name)])
    assert result.exit_code == 2, result.output
    [line] = result.output.splitlines()
    assert re.fullmatch(f"error: {expected}", line), line


# besides any float: a signed zero, the least subnormal, the switch to exponent form at 1e16,
# a power of ten, a long mantissa, and -1.0, the sentinel sync.csv writes for an infinite bound
SYNC_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 3.35e25, -1.0]))
SYNC_ROWS = st.tuples(*[SYNC_FLOATS] * 6, st.sampled_from([0, 1]))
EDGE_ROW = (-0.0, 5e-324, 1e16, 1e22, 3.35e25, -1.0, 1)


def sync_report(rows) -> SyncReport:
    return SyncReport(rows=list(rows))


@settings(deadline=None)
@given(rows=st.lists(SYNC_ROWS, max_size=12), chunk_rows=st.integers(1, 5))
@example(rows=[], chunk_rows=1024)
@example(rows=[EDGE_ROW], chunk_rows=1024)
@example(rows=[EDGE_ROW, (0.0, 0.01, -3.0, 1.5, 40.0, 30.0, 0)] * 4, chunk_rows=3)
def test_sync_csv_is_what_csv_writer_writes(rows, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(runner, "SYNC_CHUNK", chunk_rows)
        expected = runner._write_csv(Path(tmp) / "csv_writer.csv", runner.SYNC_HEADER, rows).read_bytes()
        written = runner._write_sync_csv(Path(tmp) / "sync.csv", sync_report(rows))
        assert written.read_bytes() == expected


def test_sync_csv_past_one_chunk_is_what_csv_writer_writes(tmp_path):
    rng = random.Random(7)
    count = 2 * runner.SYNC_CHUNK + 3
    rows = [(k * 0.01, *(rng.uniform(-1e3, 1e3) for _ in range(5)), rng.randint(0, 1)) for k in range(count)]
    report = runner.RunReport("x", 1, "prioritized", sync=sync_report(rows))
    report.write_csvs(tmp_path)
    expected = runner._write_csv(tmp_path / "csv_writer.csv", runner.SYNC_HEADER, rows).read_bytes()
    assert (tmp_path / "sync.csv").read_bytes() == expected


def test_the_column_views_read_back_the_rows():
    report = run(SCENARIOS / "sync_disconnect.yaml").sync
    columns = (report.t, report.e_pos, report.e_rot, report.bound, report.kp, report.kd, report.corrected)
    assert len(columns) == len(runner.SYNC_HEADER)
    assert list(zip(*columns)) == report.rows
    assert [type(c) for c in report.corrected] == [int] * len(report.rows)
    assert set(report.corrected) == {0, 1}
    with pytest.raises(AttributeError):
        report.t = []
