"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and reported (non-gated) figures.
"""

import filecmp
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from twinbridge.envelope import (
    BadMagic,
    CrcMismatch,
    Envelope,
    Truncated,
    decode_envelope,
    encode_envelope,
)
from twinbridge.geo import (
    GeoPoint,
    gps_to_scene,
    haversine_distance,
    scene_to_gps,
    tangent_plane_offset,
)
from twinbridge.lidar2d import PointCloud3D, payload_comparison, project
from twinbridge.mmcf import calibrate_bounds, measure_config, normalize, optimize
from twinbridge.runner import run, run_sync_section, sync_gain_comparison
from twinbridge.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def verdict(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


@pytest.fixture(scope="module")
def sync_default():
    return load_scenario(SCENARIOS / "sync_default.yaml")


@pytest.fixture(scope="module")
def sync_disconnect():
    return load_scenario(SCENARIOS / "sync_disconnect.yaml")


@pytest.fixture(scope="module")
def disconnect_comparison(sync_disconnect):
    return sync_gain_comparison(sync_disconnect)


def test_criterion_1_sync_accuracy(sync_default):
    """Steady-state positional error < 5 cm and rotational error < 2 degrees."""
    started = time.monotonic()
    report = run_sync_section(sync_default, sync_default.seed)
    wall = time.monotonic() - started
    steady = [
        (t, e, abs(r)) for t, e, r in zip(report.t, report.e_pos, report.e_rot) if t > 10.0
    ]
    assert steady
    max_pos = max(e for _, e, _ in steady)
    max_rot = max(r for _, _, r in steady)
    assert max_pos < 0.05, f"steady positional error {max_pos:.4f} m"
    assert max_rot < math.radians(2.0), f"steady rotational error {math.degrees(max_rot):.3f} deg"
    assert wall < 10.0, f"runtime {wall:.2f} s"
    verdict(
        1,
        f"steady |e_pos| max {max_pos * 100:.2f} cm < 5 cm, "
        f"|e_rot| max {math.degrees(max_rot):.3f} deg < 2 deg, wall {wall:.2f} s < 10 s",
    )


def test_criterion_2_gronwall_bound(sync_default, disconnect_comparison):
    """Measured error never exceeds the analytic envelope in bound-declared runs."""
    checked = []
    for name in ("sync_default", "sync_latency200"):
        scenario = load_scenario(SCENARIOS / f"{name}.yaml")
        report = run_sync_section(scenario, scenario.seed)
        assert report.bound_violations == 0, f"{name}: {report.bound_violations} violations"
        assert scenario.sync.bound is not None
        assert report.max_input_mismatch <= scenario.sync.bound.delta_bound, name
        checked.append(name)
    adaptive_report, _ = disconnect_comparison
    assert adaptive_report.bound_violations == 0
    checked.append("sync_disconnect")
    verdict(2, f"zero envelope violations across {', '.join(checked)}")


def test_criterion_3_disconnect_resilience(sync_disconnect, disconnect_comparison):
    """Recovery within 5 s of reconnect; adaptive gains beat every fixed gain."""
    adaptive_report, fixed_reports = disconnect_comparison
    reconnect = sync_disconnect.conditions.disconnects[0][1]
    # the post-reconnect check window ends where the scenario's next scripted
    # impairment change begins (the latency profile step)
    phase_changes = [t for t, _ in sync_disconnect.conditions.latency.breakpoints() if t > reconnect]
    window_end = min(phase_changes) if phase_changes else sync_disconnect.duration
    bad = [
        (t, e, eps)
        for t, e, eps in zip(adaptive_report.t, adaptive_report.e_pos, adaptive_report.eps_pos)
        if reconnect + 5.0 <= t < window_end and e >= eps
    ]
    assert not bad, f"errors above adaptive thresholds after recovery: {bad[:3]}"

    adaptive_integral = adaptive_report.integrated_error()
    fixed_integrals = {gains: rep.integrated_error() for gains, rep in fixed_reports.items()}
    best_gains = min(fixed_integrals, key=fixed_integrals.get)
    best_fixed = fixed_integrals[best_gains]
    assert adaptive_integral < best_fixed, (
        f"adaptive {adaptive_integral:.3f} not below best fixed {best_fixed:.3f} {best_gains}"
    )
    reduction = 1.0 - adaptive_integral / best_fixed
    verdict(
        3,
        f"recovered within 5 s of reconnect; adaptive integral {adaptive_integral:.2f} "
        f"beats best fixed {best_fixed:.2f} (reduction {reduction:.1%}, reported not gated)",
    )


def test_criterion_4_prioritization_benefit():
    """Critical p95 latency: prioritized beats FIFO in 100% of seeded runs."""
    scenario = load_scenario(SCENARIOS / "bridge_sweep.yaml")
    improvements = []
    for count in (2, 3, 5):
        for seed in range(101, 111):
            bridge = scenario.bridge_scenario(count=count, seed=seed)
            from twinbridge.engine import percentile, run_traffic

            on = run_traffic(bridge)
            off = run_traffic(scenario.bridge_scenario(count=count, seed=seed, baseline=True))
            pose_topics = [t for t in off.topics if t.endswith("pose")]
            p95_on = percentile(sorted(on.tier_latencies()["critical"]), 95)
            p95_off = percentile(
                sorted(x for t in pose_topics for x in off.topics[t].latencies), 95
            )
            assert p95_on < p95_off, f"agents={count} seed={seed}: {p95_on} !< {p95_off}"
            improvements.append(1.0 - p95_on / p95_off)
    verdict(
        4,
        f"critical p95 lower in 30/30 runs; observed improvement "
        f"{min(improvements):.1%}..{max(improvements):.1%} (median "
        f"{sorted(improvements)[len(improvements) // 2]:.1%}; paper magnitudes not gated)",
    )


def test_criterion_5_delivery_under_loss():
    """At 25% loss: critical delivery 100% with replay, below 100% for FIFO."""
    scenario = load_scenario(SCENARIOS / "bridge_loss.yaml")
    on = run(scenario)
    off = run(scenario, baseline=True)
    on_rate = on.tier_delivery_rate("critical")
    off_rate = off.tier_delivery_rate("critical")
    assert on_rate == 1.0, f"prioritized critical delivery {on_rate:.4f}"
    assert off_rate < 1.0, f"baseline critical delivery {off_rate:.4f}"
    # eventual exactly-once: delivered equals sent with no duplicates
    crit_topics = [t for t, res in on.traffic.topics.items() if res.tier == "critical"]
    for topic in crit_topics:
        res = on.traffic.topics[topic]
        assert res.delivered == res.sent
    verdict(
        5,
        f"critical delivery 100% with replay vs {off_rate:.1%} FIFO at 25% loss "
        f"(gap {1 - off_rate:.1%} reported)",
    )


def test_criterion_6_mmcf_optimality():
    """Exhaustive optimize equals brute force; optimizer never loses to a fixed config."""
    scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
    bridge = scenario.bridge_scenario()
    spec = scenario.mmcf
    space = spec.space
    assert len(space) == 24
    bounds = calibrate_bounds(spec.probe_configs(), bridge)
    result = optimize(space, bridge, bounds, spec.weights)

    # independent oracle: plain loop, fresh measurements, literal argmin
    oracle_best = None
    oracle_cost = math.inf
    costs = []
    for cfg in sorted(space):
        cost = spec.weights.weigh(normalize(measure_config(cfg, bridge), bounds))
        costs.append(cost)
        if cost < oracle_cost:
            oracle_best, oracle_cost = cfg, cost
    assert result.best == oracle_best
    assert result.cost == pytest.approx(oracle_cost)
    assert all(result.cost <= c + 1e-12 for c in costs)
    median_cost = sorted(costs)[len(costs) // 2]
    improvement = 1.0 - result.cost / median_cost if median_cost else 0.0
    verdict(
        6,
        f"optimize == brute-force argmin over 24 configs; best cost {result.cost:.4f} "
        f"<= all fixed; {improvement:.1%} below median fixed (reported, not gated)",
    )


def test_criterion_7_geodesy():
    """Haversine vs independent oracle, tangent-plane agreement, roundtrip."""

    def sphere_oracle(a: GeoPoint, b: GeoPoint, r: float = 6_371_000.0) -> float:
        dl = b.longitude - a.longitude
        num = math.hypot(
            math.cos(b.latitude) * math.sin(dl),
            math.cos(a.latitude) * math.sin(b.latitude)
            - math.sin(a.latitude) * math.cos(b.latitude) * math.cos(dl),
        )
        den = math.sin(a.latitude) * math.sin(b.latitude) + math.cos(a.latitude) * math.cos(
            b.latitude
        ) * math.cos(dl)
        return r * math.atan2(num, den)

    rng = random.Random(776001)
    worst_mm = 0.0
    for _ in range(100):
        a = GeoPoint(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
        b = GeoPoint(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
        err = abs(haversine_distance(a, b) - sphere_oracle(a, b))
        worst_mm = max(worst_mm, err * 1000.0)
        assert err < 1e-3

    worst_rel = 0.0
    for _ in range(200):
        lat = rng.uniform(-1.2, 1.2)
        lon = rng.uniform(-3.0, 3.0)
        dlat = rng.uniform(-0.0035, 0.0035)
        dlon = rng.uniform(-0.0035, 0.0035)
        ref = GeoPoint(lat, lon)
        off = tangent_plane_offset(ref, GeoPoint(lat + dlat, lon + dlon))
        east_h = haversine_distance(ref, GeoPoint(lat, lon + dlon))
        north_h = haversine_distance(ref, GeoPoint(lat + dlat, lon))
        norm_t = math.hypot(off.east, off.north)
        norm_h = math.hypot(east_h, north_h)
        if norm_h > 1e-6:
            rel = abs(norm_t - norm_h) / norm_h
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-5

    worst_rad = 0.0
    for _ in range(100):
        ref = GeoPoint(rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0), rng.uniform(-40, 40))
        target = GeoPoint(
            ref.latitude + rng.uniform(-0.004, 0.004),
            ref.longitude + rng.uniform(-0.004, 0.004),
            ref.altitude + rng.uniform(-10, 10),
        )
        coord = gps_to_scene(ref, target, 1.5, extent=100.0)
        back = scene_to_gps(ref, coord, 1.5)
        worst_rad = max(
            worst_rad, abs(back.latitude - target.latitude), abs(back.longitude - target.longitude)
        )
        assert abs(back.latitude - target.latitude) < 1e-9
        assert abs(back.longitude - target.longitude) < 1e-9

    # above AREA_THRESHOLD_M2 each horizontal axis is a signed great-circle arc
    rng = random.Random(776007)
    worst_axis_mm = 0.0
    for _ in range(100):
        ref = GeoPoint(rng.uniform(-1.2, 1.2), rng.uniform(-2.5, 2.5), rng.uniform(-40, 40))
        target = GeoPoint(
            ref.latitude + rng.uniform(-0.3, 0.3),
            ref.longitude + rng.uniform(-0.5, 0.5),
            ref.altitude + rng.uniform(-10, 10),
        )
        coord = gps_to_scene(ref, target, 1.5, extent=4.0e12)
        east = math.copysign(
            sphere_oracle(GeoPoint(ref.latitude, ref.longitude), GeoPoint(ref.latitude, target.longitude)),
            target.longitude - ref.longitude,
        )
        north = math.copysign(
            sphere_oracle(GeoPoint(ref.latitude, ref.longitude), GeoPoint(target.latitude, ref.longitude)),
            target.latitude - ref.latitude,
        )
        for got, want in ((coord.x, 1.5 * east), (coord.z, 1.5 * north)):
            worst_axis_mm = max(worst_axis_mm, abs(got - want) * 1000.0)
            assert abs(got - want) < 1.5e-3
        assert coord.y == pytest.approx(1.5 * (target.altitude - ref.altitude))
    verdict(
        7,
        f"haversine within {worst_mm:.4f} mm of oracle on 100 pairs; tangent-plane "
        f"agreement {worst_rel:.2e} < 1e-5; roundtrip {worst_rad:.2e} rad < 1e-9; "
        f"large-extent axes within {worst_axis_mm:.4f} mm of oracle on 100 pairs",
    )


def test_criterion_8_envelope():
    """10 000 roundtrips plus exhaustive single-byte corruption rejection."""
    rng = random.Random(88)

    def random_env():
        topic = "/" + "".join(rng.choice("abcdefgh/") for _ in range(rng.randint(1, 12))).strip("/")
        topic = topic if topic != "/" else "/t"
        return Envelope(
            tier=rng.randrange(3),
            flags=rng.randrange(2),
            seq=rng.getrandbits(48),
            sim_time_us=rng.getrandbits(48),
            topic=topic,
            kind=rng.randrange(6),
            payload=rng.randbytes(rng.randint(0, 64)),
        )

    for _ in range(10_000):
        env = random_env()
        assert decode_envelope(encode_envelope(env)) == env

    corpus = [encode_envelope(random_env()) for _ in range(1_000)]
    corruptions = 0
    for frame in corpus:
        for i in range(len(frame)):
            mutated = bytearray(frame)
            mutated[i] ^= 1 + (i % 255)
            with pytest.raises((BadMagic, Truncated, CrcMismatch)):
                decode_envelope(bytes(mutated))
            corruptions += 1
    verdict(
        8,
        f"10 000 roundtrips exact; {corruptions} single-byte corruptions across "
        f"1 000 frames all rejected with BadMagic/Truncated/CrcMismatch",
    )


def test_criterion_9_lidar_projection():
    """Projection equals the brute-force oracle; size reduction reported."""
    rng = random.Random(909)

    def brute(cloud, n_bins, z_band):
        z_lo, z_hi = z_band
        ranges = np.full(n_bins, math.inf)
        for r, theta, z in zip(cloud.r, cloud.theta, cloud.z):
            if z_lo <= z <= z_hi:
                idx = min(int((theta + math.pi) / (2 * math.pi) * n_bins), n_bins - 1)
                ranges[idx] = min(ranges[idx], r)
        return ranges

    for _ in range(100):
        n = 1000
        cloud = PointCloud3D(
            r=np.array([rng.uniform(0.0, 30.0) for _ in range(n)]),
            theta=np.array([rng.uniform(-math.pi, math.pi - 1e-9) for _ in range(n)]),
            z=np.array([rng.uniform(-1.0, 2.0) for _ in range(n)]),
        )
        scan = project(cloud, 360, (-0.5, 1.0))
        assert np.array_equal(scan.ranges, brute(cloud, 360, (-0.5, 1.0)))

    big = PointCloud3D(
        r=np.array([rng.uniform(0.0, 30.0) for _ in range(10_000)]),
        theta=np.array([rng.uniform(-math.pi, math.pi - 1e-9) for _ in range(10_000)]),
        z=np.array([rng.uniform(-1.0, 2.0) for _ in range(10_000)]),
    )
    cmp_result = payload_comparison(project(big, 360, (-0.5, 1.0)), big)
    assert cmp_result.scan_bytes == 1440
    assert cmp_result.cloud_bytes == 120_000
    verdict(
        9,
        f"projection equals brute-force oracle on 100 random 1000-point clouds; "
        f"360-bin scan vs 10k-point cloud: {cmp_result.scan_bytes} B vs "
        f"{cmp_result.cloud_bytes} B ({cmp_result.reduction:.1%} reduction, reported not gated)",
    )


def test_criterion_10_determinism(tmp_path):
    """Identical seeds produce byte-identical CSV artifacts."""
    checked = []
    for name in ("bridge_loss", "sync_default"):
        scenario = load_scenario(SCENARIOS / f"{name}.yaml")
        run(scenario, out_dir=tmp_path / name / "a")
        run(scenario, out_dir=tmp_path / name / "b")
        for csv_file in sorted((tmp_path / name / "a").iterdir()):
            twin_file = tmp_path / name / "b" / csv_file.name
            assert filecmp.cmp(csv_file, twin_file, shallow=False), csv_file.name
            checked.append(f"{name}/{csv_file.name}")
    verdict(10, f"byte-identical artifacts across repeat runs: {len(checked)} files compared")
