"""One benchmark repetition, run in a fresh interpreter.

    python3 bench/worker.py WORKLOAD --seed N --out-dir DIR [--agents N] [--trace]

Imports twinbridge from ``src/``, loads and adjusts the workload's scenario
(set-up), runs it through ``runner.run`` with CSV artifacts written to
``--out-dir`` (timed, with ``reference_s`` timed just before and after),
checks the outputs, hashes the artifacts, deletes them, and prints one JSON
object on standard output. With ``--trace`` the public functions of each
layer are wrapped first (see ``tracing.py``) and the per-layer figures are
added to the object.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# reference_s() on the development host (Intel Xeon, 2 vCPUs, Python 3.11.7)
# when it is not contended; normalised times read as seconds on that host
REF_NOMINAL_S = 0.0028

# workload -> (scenario file, fields of the parsed Scenario to override)
WORKLOADS = {
    # 200 agents = 600 topics on a 120 kB/s link: per-topic, per-tick costs dominate
    "fleet": ("agents20.yaml", {"agent_count": 200}),
    # the native 30 sim-s run is too short to time; 300 sim-s fills every replay ring
    "replay_loss": ("bridge_loss.yaml", {"duration": 300.0}),
    "sync_blackout": ("sync_disconnect.yaml", {}),
    "mmcf_search": ("mmcf_default.yaml", {}),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--agents", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from twinbridge import runner, scenario

    t_import = time.perf_counter()
    scen = scenario.load_scenario(ROOT / "scenarios" / WORKLOADS[args.workload][0])
    load_s = time.perf_counter() - t_import
    overrides = dict(WORKLOADS[args.workload][1])
    if args.agents is not None:
        overrides["agent_count"] = args.agents
    scen = dataclasses.replace(scen, **overrides)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = tracer.span("runner.run", runner.run) if tracer else runner.run

    ref_s = reference_s()
    t1 = time.perf_counter()
    report = run(scen, seed=args.seed, out_dir=args.out_dir)
    wall_s = time.perf_counter() - t1
    ref_s = min(ref_s, reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = artifact_digest(args.out_dir)
    shutil.rmtree(args.out_dir)
    outcomes = simulated_outcomes(args.workload, scen, report)
    out = {
        "workload": args.workload,
        "seed": report.seed,
        "setup_s": setup_s,
        "load_s": load_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "setup_norm_s": setup_s * REF_NOMINAL_S / ref_s,
        "wall_norm_s": wall_s * REF_NOMINAL_S / ref_s,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
        "problems": check_report(args.workload, report),
        "digest": digest,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 0


def reference_s() -> float:
    """Fastest of several timings of a fixed pure-Python loop: a yardstick for host speed.

    A shared host slows down by up to half for stretches of a minute or more,
    and the loop slows with it, so a time scaled by REF_NOMINAL_S over this
    figure is steadier across runs than the time alone. The loop does not
    touch the package.
    """
    best = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def simulated_outcomes(workload: str, scen, report) -> dict[str, float]:
    """Deterministic, simulated-time results of the run (no host time)."""
    s = report.summary
    out: dict[str, float] = {}
    if workload == "sync_blackout":
        out["sim_s"] = scen.duration
        out["delivery_rate"] = s["sync_updates_received"] / s["sync_updates_sent"]
        out["sync_steady_e_pos_m"] = s["sync_steady_max_e_pos"]
        out["sync_integrated_e_pos_ms"] = s["sync_integrated_e_pos"]
        return out
    if workload == "mmcf_search":
        # the plain traffic run plus one run per evaluated configuration; column 6 is loss
        out["sim_s"] = (1 + len(report.mmcf_rows)) * scen.duration
        out["delivery_rate"] = sum(1.0 - row[6] for row in report.mmcf_rows) / len(report.mmcf_rows)
        out["mmcf_best_cost"] = s["mmcf_best_cost"]
        return out
    out["sim_s"] = scen.duration
    out["messages_sent"] = s["sent"]
    out["delivery_rate"] = s["delivered"] / s["sent"]
    out["critical_delivery_rate"] = report.tier_delivery_rate("critical")
    out["critical_p95_s"] = report.tier_p95("critical")
    out["standard_p95_s"] = report.tier_p95("standard")
    return out


def check_report(workload: str, report) -> list[str]:
    """Correctness checks on one run; returns one line per problem found."""
    problems = []
    for topic, _tier, sent, delivered, dropped, buffered, *_ in report.topic_rows:
        if sent != delivered + dropped + buffered:
            problems.append(
                f"{topic}: sent {sent} != delivered {delivered} + dropped {dropped} + buffered {buffered}"
            )
    if workload == "replay_loss":
        for topic, res in report.traffic.topics.items():
            if res.tier != "critical":
                continue
            if res.delivered != res.sent:
                problems.append(f"{topic}: critical delivered {res.delivered} of {res.sent}")
            if len(res.latencies) != res.delivered:
                problems.append(f"{topic}: {len(res.latencies)} republished for {res.delivered} delivered")
    if workload == "sync_blackout" and report.summary["sync_bound_violations"] != 0:
        problems.append(f"{report.summary['sync_bound_violations']} sync bound violations")
    if workload == "mmcf_search":
        problems.extend(_check_mmcf(report))
    return problems


def _check_mmcf(report) -> list[str]:
    problems = []
    if report.summary["mmcf_evaluated_fraction"] != 1.0:
        problems.append(f"evaluated fraction {report.summary['mmcf_evaluated_fraction']} != 1.0")
    # rows are in sort-key order, so the first minimum is the tie-break winner
    best_row = min(report.mmcf_rows, key=lambda row: row[-1])
    shares = tuple(float(x) for x in best_row[1].split("|")) if best_row[1] else (-1.0, -1.0, -1.0)
    key = (best_row[0], shares, *best_row[2:5])
    if key != ast.literal_eval(report.summary["mmcf_best"]):
        problems.append(f"best {report.summary['mmcf_best']} is not the table argmin {key}")
    if best_row[-1] != report.summary["mmcf_best_cost"]:
        problems.append(f"best cost {report.summary['mmcf_best_cost']} != table minimum {best_row[-1]}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
