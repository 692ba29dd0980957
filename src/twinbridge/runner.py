"""Scenario runner: wires buses, bridges, links and twins; emits reports.

Every run is fully deterministic for a fixed (scenario, seed): the same
inputs produce byte-identical CSV artifacts. Baseline mode reruns the same
scenario with prioritization and replay disabled behind a single FIFO queue,
which is the stand-in for a conventional unprioritized setup.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .engine import TrafficResult, percentile, run_traffic
from .geo import gps_to_scene
from .mmcf import calibrate_bounds, optimize, reusing_evaluator
from .netsim import NetLink, PiecewiseConstant, SimClock
from .scenario import Scenario, load_scenario
from .twinsync import PhysicalAgent, SyncReport, VirtualTwin, run_sync_loop, vec3

TOPICS_HEADER = (
    "topic", "tier", "sent", "delivered", "dropped", "buffered",
    "bytes", "lat_p50", "lat_p95", "lat_max",
)
GEO_HEADER = ("lat_deg", "lon_deg", "alt_m", "scene_x", "scene_y", "scene_z")
TIERS_HEADER = ("tier", "sent", "delivered", "delivery_rate", "lat_p50", "lat_p95", "lat_max")
SUMMARY_HEADER = ("key", "value")
SYNC_HEADER = ("t", "e_pos", "e_rot", "bound", "kp", "kd", "corrected")
MMCF_HEADER = (
    "redundancy", "shares", "replay_capacity", "discovery_period", "batch",
    "latency", "loss", "compute", "bandwidth", "L", "P", "C", "B", "cost",
)
SWEEP_HEADER = (
    "agents", "sent", "delivered", "delivery_rate", "bytes",
    "critical_p95", "standard_p95", "bulk_p95",
)

SYNC_LINK_SEED = 0x517CC1B7


@dataclass
class RunReport:
    """Aggregated outcome of one scenario run."""

    name: str
    seed: int
    mode: str
    topic_rows: list[tuple] = field(default_factory=list)
    tier_rows: list[tuple] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)
    sync: SyncReport | None = None
    mmcf_rows: list[tuple] = field(default_factory=list)
    geo_rows: list[tuple] = field(default_factory=list)
    traffic: TrafficResult | None = None

    def tier_p95(self, tier: str) -> float:
        for row in self.tier_rows:
            if row[0] == tier:
                return row[5]
        return 0.0

    def tier_delivery_rate(self, tier: str) -> float:
        for row in self.tier_rows:
            if row[0] == tier:
                return row[3]
        return 0.0

    def write_csvs(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        written.append(_write_csv(out / "topics.csv", TOPICS_HEADER, self.topic_rows))
        written.append(_write_csv(out / "tiers.csv", TIERS_HEADER, self.tier_rows))
        written.append(_write_csv(out / "summary.csv", SUMMARY_HEADER, sorted(self.summary.items())))
        if self.sync is not None:
            written.append(_write_csv(out / "sync.csv", SYNC_HEADER, self.sync.rows()))
        if self.mmcf_rows:
            written.append(_write_csv(out / "mmcf.csv", MMCF_HEADER, self.mmcf_rows))
        if self.geo_rows:
            written.append(_write_csv(out / "geo.csv", GEO_HEADER, self.geo_rows))
        return written


def _write_csv(path: Path, header: tuple, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _traffic_report(report: RunReport, result: TrafficResult) -> None:
    for topic, res in sorted(result.topics.items()):
        report.topic_rows.append(
            (
                topic,
                res.tier,
                res.sent,
                res.delivered,
                res.dropped,
                res.buffered,
                res.bytes_sent,
                percentile(res.latencies, 50),
                percentile(res.latencies, 95),
                max(res.latencies) if res.latencies else 0.0,
            )
        )
    by_tier = result.tier_latencies()
    for tier in ("critical", "standard", "bulk"):
        lat = sorted(by_tier.get(tier, []))
        sent = sum(r.sent for r in result.topics.values() if r.tier == tier)
        delivered = sum(r.delivered for r in result.topics.values() if r.tier == tier)
        report.tier_rows.append(
            (
                tier,
                sent,
                delivered,
                delivered / sent if sent else 0.0,
                percentile(lat, 50),
                percentile(lat, 95),
                max(lat) if lat else 0.0,
            )
        )
    sent, delivered, dropped, buffered = result.totals()
    report.summary.update(
        {
            "sent": sent,
            "delivered": delivered,
            "dropped": dropped,
            "buffered": buffered,
            "link_bytes": result.link_bytes,
            "replays_requested": result.replays_requested,
            "replays_served": result.replays_served,
            "replay_evictions": result.replay_evictions,
            "sub_queue_drops": result.sub_queue_drops,
            "mean_latency": result.mean_latency,
            "loss_rate": result.loss_rate,
        }
    )


def run_sync_section(scenario: Scenario, seed: int) -> SyncReport:
    """Execute the twin-synchronization section over its own impaired link.

    The gains are scheduled over the controller's gain grid if it has one.
    """
    spec = scenario.sync
    assert spec is not None
    clock = SimClock()
    link = NetLink(clock, scenario.conditions, seed ^ SYNC_LINK_SEED)
    force = PiecewiseConstant((t, vec3(x, y, z)) for t, x, y, z in spec.force_script)
    agent = PhysicalAgent(spec.params, force, PiecewiseConstant(spec.yaw_script))
    twin = VirtualTwin(spec.params, tick=spec.loop.tick)
    loop = replace(spec.loop, duration=scenario.duration)
    return run_sync_loop(agent, twin, spec.controller, link, clock, loop, spec.bound)


def sync_gain_comparison(
    scenario: Scenario,
) -> tuple[SyncReport, dict[tuple[float, float], SyncReport]]:
    """The scenario's gain-scheduled run plus one fixed-gain run per grid candidate.

    A fixed-gain run is the same scenario with the candidate's kp/kd and an
    empty gain grid.
    """
    spec = scenario.sync
    if spec is None or not spec.controller.gain_grid:
        raise ValueError("scenario has no sync section with a gain grid")
    adaptive_report = run_sync_section(scenario, scenario.seed)
    fixed = {}
    for kp, kd in spec.controller.gain_grid:
        ctrl = replace(spec.controller, kp=kp, kd=kd, gain_grid=())
        fixed[kp, kd] = run_sync_section(replace(scenario, sync=replace(spec, controller=ctrl)), scenario.seed)
    return adaptive_report, fixed


def run_mmcf_section(scenario: Scenario, seed: int) -> tuple[list[tuple], dict]:
    """Calibrate bounds, optimize the declared space, and tabulate every config."""
    spec = scenario.mmcf
    assert spec is not None
    base = scenario.bridge_scenario(seed=seed)
    space = spec.configs()
    evaluate = reusing_evaluator()
    bounds = calibrate_bounds(spec.probe_configs(), base, evaluate)
    result = optimize(space, base, bounds, spec.weights, evaluate)
    # bench/worker.py::_check_mmcf reads mmcf.csv by column position and
    # mmcf_best as a 5-tuple, so the retired shares and discovery_period
    # columns keep the constants every run wrote for them: no shares ("" in
    # the table, (-1.0, -1.0, -1.0) in mmcf_best) and a 0.5 s period
    no_shares, period = (-1.0, -1.0, -1.0), 0.5
    rows = []
    for cfg, metrics, norm, cost in result.table:
        rows.append(
            (
                cfg.redundancy,
                "",
                cfg.replay_capacity,
                period,
                cfg.batch_size,
                metrics.latency,
                metrics.loss,
                metrics.compute,
                metrics.bandwidth,
                *norm,
                cost,
            )
        )
    best = result.best
    info = {
        "mmcf_best": repr((best.redundancy, no_shares, best.replay_capacity, period, best.batch_size)),
        "mmcf_best_cost": result.cost,
        "mmcf_evaluated_fraction": 1.0,  # optimize evaluates every configuration
        "mmcf_clamp_events": result.clamps,
    }
    return rows, info


def run(
    scenario: Scenario | str | Path,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    baseline: bool = False,
) -> RunReport:
    """Run one scenario end to end; optionally write its CSV artifacts."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    use_seed = scenario.seed if seed is None else seed
    mode = "fifo" if baseline else "prioritized"
    report = RunReport(scenario.name, use_seed, mode)
    report.summary.update({"name": scenario.name, "seed": use_seed, "mode": mode})

    if scenario.topic_templates:
        result = run_traffic(scenario.bridge_scenario(baseline=baseline, seed=use_seed))
        report.traffic = result
        _traffic_report(report, result)

    if scenario.sync is not None:
        sync_report = run_sync_section(scenario, use_seed)
        report.sync = sync_report
        steady_pos, steady_rot = sync_report.steady_state_max(10.0)
        report.summary.update(
            {
                "sync_updates_sent": sync_report.updates_sent,
                "sync_updates_received": sync_report.updates_received,
                "sync_corrections": sync_report.corrections_applied,
                "sync_bound_violations": sync_report.bound_violations,
                "sync_steady_max_e_pos": steady_pos,
                "sync_steady_max_e_rot": steady_rot,
                "sync_integrated_e_pos": sync_report.integrated_error(),
            }
        )

    if scenario.mmcf is not None:
        rows, info = run_mmcf_section(scenario, use_seed)
        report.mmcf_rows = rows
        report.summary.update(info)

    if scenario.geo is not None:
        report.geo_rows = geo_waypoint_rows(scenario)
        report.summary["geo_waypoints"] = len(report.geo_rows)

    if out_dir is not None:
        report.write_csvs(out_dir)
    return report


def geo_waypoint_rows(scenario: Scenario) -> list[tuple]:
    """Convert the scenario's waypoints into scene coordinates."""
    spec = scenario.geo
    assert spec is not None
    rows = []
    for point in spec.waypoints:
        coord = gps_to_scene(spec.reference, point, spec.scale, extent=spec.extent)
        rows.append(
            (
                math.degrees(point.latitude),
                math.degrees(point.longitude),
                point.altitude,
                coord.x,
                coord.y,
                coord.z,
            )
        )
    return rows


# --- comparison -----------------------------------------------------------------


@dataclass(frozen=True)
class DeltaRow:
    scope: str  # "topic:<name>" or "tier:<name>"
    metric: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def relative(self) -> float:
        return (self.b - self.a) / self.a if self.a else math.inf if self.b else 0.0


def compare(a: RunReport, b: RunReport) -> list[DeltaRow]:
    """Per-metric deltas between two runs of the same scenario and seed."""
    if a.name != b.name or a.seed != b.seed:
        raise ValueError(
            f"reports disagree on scenario identity: {a.name}/{a.seed} vs {b.name}/{b.seed}"
        )
    rows: list[DeltaRow] = []
    b_topics = {row[0]: row for row in b.topic_rows}
    for row in a.topic_rows:
        other = b_topics.get(row[0])
        if other is None:
            continue
        for i, metric in enumerate(TOPICS_HEADER[2:], start=2):
            rows.append(DeltaRow(f"topic:{row[0]}", metric, float(row[i]), float(other[i])))
    b_tiers = {row[0]: row for row in b.tier_rows}
    for row in a.tier_rows:
        other = b_tiers.get(row[0])
        if other is None:
            continue
        for i, metric in enumerate(TIERS_HEADER[1:], start=1):
            rows.append(DeltaRow(f"tier:{row[0]}", metric, float(row[i]), float(other[i])))
    return rows


def load_report(run_dir: str | Path) -> RunReport:
    """Rehydrate a report from its CSVs; one not as `write_csvs` wrote it is a ValueError."""
    run_dir = Path(run_dir)
    summary: dict[str, object] = dict(_read_rows(run_dir / "summary.csv", SUMMARY_HEADER, 2))
    report = RunReport(
        name=str(summary.get("name", "")),
        seed=int(float(str(summary.get("seed", 0)))),
        mode=str(summary.get("mode", "")),
        summary=summary,
    )
    report.topic_rows = _read_rows(run_dir / "topics.csv", TOPICS_HEADER, 2)
    tiers_path = run_dir / "tiers.csv"
    if tiers_path.exists():
        report.tier_rows = _read_rows(tiers_path, TIERS_HEADER, 1)
    return report


def _read_rows(path: Path, header: tuple[str, ...], text: int) -> list[tuple]:
    """The rows under `header`, with every field after the first `text` a float."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
            if not rows or tuple(rows[0]) != header:
                raise ValueError(f"the first line is not {','.join(header)}")
            for n, row in enumerate(rows, 1):
                if len(row) != len(header):
                    raise ValueError(f"row {n} has {len(row)} fields, not {len(header)}")
            return [(*row[:text], *map(float, row[text:])) for row in rows[1:]]
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None


# --- agent sweep -------------------------------------------------------------------


@dataclass
class SweepResult:
    counts: list[int]
    reports: list[RunReport]
    rows: list[tuple]

    def write_csv(self, path: str | Path) -> Path:
        return _write_csv(Path(path), SWEEP_HEADER, self.rows)


def sweep_agents(
    scenario: Scenario | str | Path,
    counts: list[int],
    seed: int | None = None,
    baseline: bool = False,
) -> SweepResult:
    """Run the scenario once per agent count; returns reports plus a table."""
    if not counts or any(a >= b for a, b in zip(counts, counts[1:])):
        raise ValueError("counts must be non-empty and strictly ascending")
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    use_seed = scenario.seed if seed is None else seed
    reports: list[RunReport] = []
    rows: list[tuple] = []
    # every count's topics are expanded, and so checked, before the first run
    bridges = [scenario.bridge_scenario(count=count, baseline=baseline, seed=use_seed) for count in counts]
    for count, bridge in zip(counts, bridges):
        result = run_traffic(bridge)
        report = RunReport(scenario.name, use_seed, "fifo" if baseline else "prioritized")
        report.summary.update({"name": scenario.name, "seed": use_seed, "mode": report.mode, "agents": count})
        report.traffic = result
        _traffic_report(report, result)
        reports.append(report)
        sent, delivered, _, _ = result.totals()
        offered_bytes = sum(res.bytes_sent for res in result.topics.values())
        rows.append(
            (
                count,
                sent,
                delivered,
                delivered / sent if sent else 0.0,
                offered_bytes,
                report.tier_p95("critical"),
                report.tier_p95("standard"),
                report.tier_p95("bulk"),
            )
        )
    return SweepResult(list(counts), reports, rows)
