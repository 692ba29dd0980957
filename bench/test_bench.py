"""Tests of the benchmark itself: declaration, tracing coverage, failure counting.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BRIDGE = ("fleet", "replay_loss", "mmcf_search")

# the workload meant to exercise each per-layer metric
INTENDED = {
    "msgbus.drain.calls": "fleet",
    "msgbus.drain.useful_ratio": "fleet",
    "msgbus.kind_of.calls": "fleet",
    "msgbus.publish.calls": "fleet",
    "msgbus.self_s": "fleet",
    "engine.payload_s": "fleet",
    "engine.audit_s": "fleet",
    "engine.self_s": "fleet",
    "bridge.self_s": "replay_loss",
    "bridge.replay.insert.calls": "replay_loss",
    "bridge.replay.insert.self_s": "replay_loss",
    "bridge.replay.get_range.calls": "replay_loss",
    "bridge.replay.get_range.self_s": "replay_loss",
    "bridge.replay.contains.calls": "fleet",
    "bridge.replay.contains.self_s": "fleet",
    "bridge.replay.requested": "replay_loss",
    "bridge.replay.yield": "replay_loss",
    "bridge.replay.evictions": "replay_loss",
    "bridge.plan.calls": "mmcf_search",
    "bridge.plan.self_s": "mmcf_search",
    "bridge.plan.frames_per_call": "mmcf_search",
    "envelope.encode.calls": "replay_loss",
    "envelope.encode.bytes": "replay_loss",
    "envelope.encode.self_s": "replay_loss",
    "envelope.decode.frames": "replay_loss",
    "envelope.decode.self_s": "replay_loss",
    "envelope.self_s": "replay_loss",
    "netsim.clock.events": "sync_blackout",
    "netsim.clock.events_per_s": "sync_blackout",
    "netsim.link.sends": "sync_blackout",
    "netsim.link.send_self_s": "sync_blackout",
    "netsim.link.drop_ratio": "sync_blackout",
    "netsim.link.queue_wait_p95_s": "fleet",
    "netsim.self_s": "replay_loss",
    "twinsync.predict_step.calls": "sync_blackout",
    "twinsync.predict_step.us_per_call": "sync_blackout",
    "twinsync.state_at.self_s": "sync_blackout",
    "twinsync.schedule_gains.self_s": "sync_blackout",
    "twinsync.gronwall_bound.self_s": "sync_blackout",
    "twinsync.gate_open_ratio": "sync_blackout",
    "twinsync.run_sync_loop.self_s": "sync_blackout",
    "twinsync.self_s": "sync_blackout",
    "mmcf.evaluations": "mmcf_search",
    "mmcf.eval_s_p50": "mmcf_search",
    "mmcf.optimize.self_s": "mmcf_search",
    "mmcf.self_s": "mmcf_search",
    "scenario.load_s": "mmcf_search",
    "runner.write_csvs_s": "sync_blackout",
    "runner.self_s": "sync_blackout",
    "tracing.overhead_s": "mmcf_search",
    "fleet.us_per_msg.a50": "fleet",
    "fleet.us_per_msg.a200": "fleet",
}


def test_declaration_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert names == list(worker.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(names) == len(set(names))
    assert set(INTENDED) == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced repetition of every workload, through run.py's own code."""
    out = {}
    for w in worker.WORKLOADS:
        seed = run.scenario_seed(w)
        groups = {
            "plain": [run.spawn(w, seed, 0)],
            "traced": [run.spawn(w, seed, 0, trace=True)],
            "scaling": [run.spawn(w, seed, 0, agents=run.SCALING_AGENTS)] if w == "fleet" else [],
        }
        for reps in groups.values():
            assert run.failures(reps) == []
        assert groups["plain"][0]["digest"] == groups["traced"][0]["digest"]
        best = {name: run.fastest_per_seed(reps) for name, reps in groups.items()}
        out[w] = run.layer_metrics(w, groups, best, groups["plain"][0]["wall_s"])
    return out


def test_every_layer_metric_is_reported(traced):
    for w, metrics in traced.items():
        assert set(metrics) == set(INTENDED), w


def test_each_counter_is_nonzero_on_its_workload(traced):
    zero = [name for name, w in INTENDED.items() if not traced[w][name] > 0]
    assert zero == []


def test_unvisited_layers_read_zero(traced):
    for name, value in traced["sync_blackout"].items():
        if name.split(".")[0] in ("envelope", "msgbus", "bridge", "engine", "mmcf"):
            assert value == 0, name
    for w in BRIDGE:
        for name, value in traced[w].items():
            if name.startswith("twinsync."):
                assert value == 0, (w, name)


@pytest.fixture(scope="module")
def loss_report():
    from twinbridge import runner, scenario

    scen = scenario.load_scenario(ROOT / "scenarios" / "bridge_loss.yaml")
    return runner.run(scen)


def test_clean_run_passes_checks(loss_report):
    assert worker.check_report("replay_loss", loss_report) == []


def test_broken_conservation_counts_as_failed(loss_report):
    row = loss_report.topic_rows[0]
    doctored = dataclasses.replace(
        loss_report, topic_rows=[(*row[:3], row[3] + 1, *row[4:])] + loss_report.topic_rows[1:]
    )
    problems = worker.check_report("replay_loss", doctored)
    assert len(problems) == 1 and "sent" in problems[0]
    good = {"seed": 7, "problems": [], "digest": "a"}
    doctored_rep = {"seed": 7, "problems": problems, "digest": "a"}
    assert run.failures([good, doctored_rep, good]) == [f"rep 1: {problems[0]}"]


def test_changed_digest_or_crash_counts_as_failed():
    good = {"seed": 7, "problems": [], "digest": "a" * 64}
    other_seed = {"seed": 1007, "problems": [], "digest": "c" * 64}
    reps = [good, {"seed": 7, "problems": [], "digest": "b" * 64}, {"error": "boom"}, other_seed, good]
    assert [line.split(":")[0] for line in run.failures(reps)] == ["rep 1", "rep 2"]
