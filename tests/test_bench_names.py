"""The names the benchmark harness in bench/ wraps or reads still work as it uses them.

bench/tracing.py replaces functions and methods of the package with timing
wrappers, and bench/worker.py reads report cells by name: a change that
deletes such a name, or changes what it returns, breaks the benchmark. This
runs three shipped scenarios untraced and then traced, in a fresh
interpreter so that the wrappers stay there, and checks that tracing changes
no result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from twinbridge import runner
from twinbridge.scenario import load_scenario
import tracing, worker

RUNS = {"sync_default.yaml": "sync_blackout", "bridge_loss.yaml": "replay_loss", "mmcf_default.yaml": "mmcf_search"}

def results():
    out = {}
    for name, workload in RUNS.items():
        scenario = load_scenario(f"{sys.argv[1]}/scenarios/{name}")
        report = runner.run(scenario)
        outcomes = worker.simulated_outcomes(workload, scenario, report)
        out[name] = [repr(sorted(report.summary.items())), repr(outcomes), worker.check_report(workload, report)]
    return out

plain = results()
tracer = tracing.Tracer()
tracer.install()
traced = results()
print(json.dumps({"plain": plain, "traced": traced, "layers": sorted(tracer.layer_metrics())}))
"""


def test_a_traced_run_reports_what_an_untraced_run_reports():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout)
    assert result["traced"] == result["plain"]
    assert [problems for _, _, problems in result["plain"].values()] == [[], [], []]
    assert {"msgbus.drain.calls", "bridge.replay.insert.calls", "twinsync.predict_step.calls"} <= set(result["layers"])
