"""twinbridge benchmark: host time and simulated outcomes of four workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs ``bench/worker.py`` in a fresh interpreter, so set-up
time is what a command-line run pays, with a different PYTHONHASHSEED each
time. A run covers the scenario seed ``N`` (default: the scenario file's
seed), or on fleet the four seeds ``N``, ``N + 1000``, ``N + 2000`` and
``N + 3000``, and cycles its repetitions through them until ``--seconds``
have passed (at least MIN_REPS). Simulated outcomes are deterministic per
seed, and the SHA-256 of the CSV artifacts must be the same for every
repetition of a seed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics,
including the tracing overhead (traced minus untraced wall time). Without
``--workload`` every workload runs in turn.

A human-readable table goes to standard output; the last line is one JSON
object with the keys correct, attempted, failed and metrics. Everything the
run measured is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# On fleet one seed encodes up to half again as many frames as another (its
# replay storms follow the loss pattern), so a fleet run averages four seeds.
# On the other workloads the seed moves the work by a few percent at most,
# so every repetition goes to the one seed and the fastest is found sooner.
SEEDS_PER_RUN = {"fleet": 4}
SEED_STRIDE = 1000
MIN_REPS = 8
MAX_REPS = 200
REP_TIMEOUT_S = 150
SCALING_AGENTS = 50  # fleet's second agent count for the µs-per-message row

# host time as measured, before normalising to the reference loop: printed,
# not declared, because it swings too much on a shared host to gate on
RAW_HOST = {
    "wall_s.raw": ("s", "lower"),
    "realtime_factor.raw": ("sim_s/s", "higher"),
    "setup_s.raw": ("s", "lower"),
}

# outcomes that exist only on some workloads: printed, pinned by the artifact digest
SCOPED_OUTCOMES = {
    "critical_delivery_rate": ("share", "higher"),
    "critical_p95_s": ("sim_s", "lower"),
    "standard_p95_s": ("sim_s", "lower"),
    "sync_steady_e_pos_m": ("m", "lower"),
    "sync_integrated_e_pos_ms": ("m*s", "lower"),
    "mmcf_best_cost": ("cost", "lower"),
}


def scenario_seed(workload: str) -> int:
    import yaml

    from worker import WORKLOADS

    with open(ROOT / "scenarios" / WORKLOADS[workload][0], encoding="utf-8") as fh:
        return int(yaml.safe_load(fh)["seed"])


def spawn(workload: str, seed: int, rep: int, trace: bool = False, agents: int | None = None) -> dict:
    """Run one repetition in a fresh interpreter; returns its JSON or an error."""
    out_dir = OUT / f"rep-{os.getpid()}-{rep}-{int(trace)}"
    cmd = [sys.executable, str(WORKER), workload, "--seed", str(seed), "--out-dir", str(out_dir)]
    if agents is not None:
        cmd += ["--agents", str(agents)]
    if trace:
        cmd.append("--trace")
    hashseed = str(1 + (seed * 1000 + rep) % 4294967295)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s", "hashseed": hashseed}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "hashseed": hashseed}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(reps: list[dict]) -> list[str]:
    """One line per failed repetition: raised, failed a check, or changed its seed's digest."""
    lines = []
    reference: dict[int, str] = {}
    for i, rep in enumerate(reps):
        if "error" in rep:
            lines.append(f"rep {i}: {rep['error']}")
        elif rep["problems"]:
            lines.append(f"rep {i}: {'; '.join(rep['problems'])}")
        elif rep["digest"] != reference.setdefault(rep["seed"], rep["digest"]):
            lines.append(f"rep {i}: artifact digest {rep['digest'][:16]} != {reference[rep['seed']][:16]}")
    return lines


def fastest_per_seed(reps: list[dict], key: str = "wall_s") -> dict[int, dict]:
    """For each seed, the repetition with the least wall time (or other key).

    Noise on a shared host only ever adds time, and it comes in bursts that
    last several repetitions, so the fastest fresh-process repetition is a
    far steadier estimate of the program's own cost than the median.
    """
    best: dict[int, dict] = {}
    for r in reps:
        if "error" not in r and (r["seed"] not in best or r[key] < best[r["seed"]][key]):
            best[r["seed"]] = r
    return best


def seed_mean(best: dict[int, dict], get) -> float:
    return statistics.fmean(get(r) for r in best.values())


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps if "error" not in r)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    seeds = [seed + SEED_STRIDE * j for j in range(SEEDS_PER_RUN.get(workload, 1))]
    groups: dict[str, list[dict]] = {"plain": [], "traced": [], "scaling": []}
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or (time.perf_counter() - start < seconds and rep < MAX_REPS):
        s = seeds[rep % len(seeds)]
        if not trace:
            groups["plain"].append(spawn(workload, s, rep))
        else:
            # alternate which side runs first so drift hits both alike
            for traced in (False, True) if rep % 2 == 0 else (True, False):
                groups["traced" if traced else "plain"].append(spawn(workload, s, rep, traced))
            if workload == "fleet":
                groups["scaling"].append(spawn(workload, s, rep, agents=SCALING_AGENTS))
        rep += 1

    problems = {name: failures(reps) for name, reps in groups.items()}
    best = {name: fastest_per_seed(reps) for name, reps in groups.items()}
    # tracing must not change what the simulator computes
    for s, r in best["traced"].items():
        if s in best["plain"] and r["digest"] != best["plain"][s]["digest"]:
            problems["traced"].append(f"seed {s}: traced artifacts differ from untraced ones")
    attempted = sum(len(reps) for reps in groups.values())
    failed = sum(len(lines) for lines in problems.values())
    measured = [len(best["plain"])] + ([len(best["traced"])] if trace else [])
    if min(measured) < len(seeds):
        raise SystemExit(f"{workload}: a seed has no completed repetition: {problems}")

    plain = best["plain"]
    outcomes = {
        name: seed_mean(plain, lambda r: r["outcomes"][name])
        for name in plain[seed]["outcomes"]
    }
    wall_s = seed_mean(fastest_per_seed(groups["plain"], "wall_norm_s"), lambda r: r["wall_norm_s"])
    raw_wall_s = seed_mean(plain, lambda r: r["wall_s"])
    metrics = {
        "wall_s": wall_s,
        "realtime_factor": outcomes["sim_s"] / wall_s,
        "setup_s": median_of(groups["plain"], "setup_norm_s"),
        "peak_rss_mb": median_of(groups["plain"], "peak_rss_mb"),
        "ok_share": 1.0 - failed / attempted,
        "delivery_rate": outcomes["delivery_rate"],
        "wall_s.raw": raw_wall_s,
        "realtime_factor.raw": outcomes["sim_s"] / raw_wall_s,
        "setup_s.raw": median_of(groups["plain"], "setup_s"),
    }
    # the median repetition, beside the reported value, so bursts of noise show
    medians = dict(metrics)
    for name, key in (("wall_s", "wall_norm_s"), ("setup_s", "setup_norm_s"), ("wall_s.raw", "wall_s")):
        medians[name] = median_of(groups["plain"], key)
    medians["realtime_factor"] = outcomes["sim_s"] / medians["wall_s"]
    medians["realtime_factor.raw"] = outcomes["sim_s"] / medians["wall_s.raw"]
    result = {
        "workload": workload,
        "seed": seed,
        "seeds": seeds,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": {s: r["digest"] for s, r in plain.items()},
        "outcomes": outcomes,
        "end_to_end": metrics,
        "medians": medians,
        "samples": sum("error" not in r for r in groups["plain"]),
        "stamp": stamp(groups),
        "reps": groups,
    }
    if trace:
        result["per_layer"] = layer_metrics(workload, groups, best, raw_wall_s)
    return result


def layer_metrics(workload: str, groups: dict, best: dict, plain_wall: float) -> dict[str, float]:
    """Per-layer figures: the fastest traced repetition of each seed, averaged over seeds."""
    traced = best["traced"]
    some = next(iter(traced.values()))
    m = {name: seed_mean(traced, lambda r: r["layers"][name]) for name in some["layers"]}
    m["scenario.load_s"] = median_of(groups["plain"] + groups["traced"], "load_s")
    m["tracing.overhead_s"] = seed_mean(traced, lambda r: r["wall_s"]) - plain_wall
    m["netsim.clock.events_per_s"] = m["netsim.clock.events"] / plain_wall
    m["fleet.us_per_msg.a50"] = m["fleet.us_per_msg.a200"] = 0.0
    if workload == "fleet":
        sent = seed_mean(best["plain"], lambda r: r["outcomes"]["messages_sent"])
        m["fleet.us_per_msg.a200"] = 1e6 * plain_wall / sent
        small = best["scaling"]
        m[f"fleet.us_per_msg.a{SCALING_AGENTS}"] = 1e6 * seed_mean(small, lambda r: r["wall_s"]) / seed_mean(
            small, lambda r: r["outcomes"]["messages_sent"]
        )
    return m


def stamp(groups: dict[str, list[dict]]) -> dict:
    """Where and how the numbers were taken."""
    done = [r for reps in groups.values() for r in reps if "python" in r]
    return {
        "python": done[0]["python"],
        "numpy": done[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "hashseeds": [r["hashseed"] for reps in groups.values() for r in reps],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(result: dict, spec: dict) -> None:
    n = result["samples"]
    s = result["stamp"]
    print(f"== {result['workload']}  seeds {result['seeds']}  trace {int(result['trace'])}")
    print(f"   python {s['python']}  numpy {s['numpy']}  nproc {s['nproc']}  cpu {s['cpu']}  commit {s['commit'][:12]}")
    print(f"   {'metric':34} {'unit':14} {'better':7} {'value':>14} {'median':>14} {'n':>4}")
    rows = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    rows += [(name, unit, better) for name, (unit, better) in RAW_HOST.items()]
    for name, unit, better in rows:
        print(f"   {name:34} {unit:14} {better:7} {result['end_to_end'][name]:14.6g}"
              f" {result['medians'][name]:14.6g} {n:4}")
    print(f"   {'failed_share':34} {'share':14} {'lower':7} {result['failed'] / result['attempted']:14.6g}"
          f"   ({result['failed']} failed of {result['attempted']} attempted)")
    for name, (unit, better) in SCOPED_OUTCOMES.items():
        value = result["outcomes"].get(name)
        shown = f"{value:14.6g}" if value is not None else f"{'n/a':>14}"
        print(f"   {name:34} {unit:14} {better:7} {shown}")
    for name, lines in result["problems"].items():
        for line in lines:
            print(f"   FAILED {name} {line}")
    for m in spec["per_layer"] if "per_layer" in result else ():
        print(f"   {m['name']:34} {m['unit']:14} {m['better']:7} {result['per_layer'][m['name']]:14.6g}")
    for seed, digest in result["digests"].items():
        print(f"   seed {seed} artifacts sha256 {digest}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=None, help="default: the scenario file's seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/twinbridge", "scenarios") if not (ROOT / p).is_dir()]
    if missing:
        print(f"error: the program is not here: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    key = "per_layer" if args.trace else "end_to_end"
    results = []
    for workload in [args.workload] if args.workload else names:
        seed = scenario_seed(workload) if args.seed is None else args.seed
        result = run_workload(workload, seed, args.seconds, bool(args.trace))
        results.append(result)
        print_table(result, spec)
        path = OUT / f"{workload}-seed{seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")

    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        line["metrics"] = {
            m["name"]: {"value": results[0][key][m["name"]], "unit": m["unit"]} for m in spec[key]
        }
    else:
        line["metrics"] = {
            f"{r['workload']}.{m['name']}": {"value": r[key][m["name"]], "unit": m["unit"]}
            for r in results
            for m in spec[key]
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
