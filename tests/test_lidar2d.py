"""Point-cloud projection against a brute-force per-bin oracle."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbridge.lidar2d import (
    PointCloud3D,
    Scan2D,
    cloud_payload_size,
    payload_comparison,
    project,
    scan_payload_size,
)


def brute_force_project(cloud: PointCloud3D, n_bins: int, z_band) -> np.ndarray:
    """Reference projection: plain loop over points."""
    z_lo, z_hi = z_band
    ranges = np.full(n_bins, math.inf)
    for r, theta, z in zip(cloud.r, cloud.theta, cloud.z):
        if not z_lo <= z <= z_hi:
            continue
        idx = min(int((theta + math.pi) / (2 * math.pi) * n_bins), n_bins - 1)
        ranges[idx] = min(ranges[idx], r)
    return ranges


def random_cloud(rng, n):
    return PointCloud3D(
        r=np.array([rng.uniform(0.0, 30.0) for _ in range(n)]),
        theta=np.array([rng.uniform(-math.pi, math.pi - 1e-9) for _ in range(n)]),
        z=np.array([rng.uniform(-1.0, 2.0) for _ in range(n)]),
    )


class TestProject:
    def test_single_in_band_point(self):
        cloud = PointCloud3D(np.array([2.0]), np.array([0.0]), np.array([0.1]))
        scan = project(cloud, n_bins=8, z_band=(0.0, 1.0))
        idx = 4  # 0 rad maps to the bin starting at 0
        assert scan.ranges[idx] == 2.0
        others = np.delete(scan.ranges, idx)
        assert np.all(np.isinf(others))

    def test_min_of_two_points_same_bin(self):
        cloud = PointCloud3D(np.array([2.0, 3.0]), np.array([0.0, 0.0]), np.array([0.1, 0.5]))
        scan = project(cloud, n_bins=8, z_band=(0.0, 1.0))
        assert scan.ranges[4] == 2.0

    def test_out_of_band_ignored(self):
        cloud = PointCloud3D(np.array([1.0]), np.array([0.0]), np.array([5.0]))
        scan = project(cloud, n_bins=4, z_band=(-1.0, 1.0))
        assert np.all(np.isinf(scan.ranges))

    def test_matches_brute_force_on_random_clouds(self):
        rng = random.Random(4242)
        for _ in range(20):
            cloud = random_cloud(rng, 1000)
            scan = project(cloud, n_bins=360, z_band=(-0.5, 1.0))
            assert np.array_equal(scan.ranges, brute_force_project(cloud, 360, (-0.5, 1.0)))

    def test_permutation_invariant(self):
        rng = random.Random(11)
        cloud = random_cloud(rng, 200)
        perm = np.random.RandomState(5).permutation(200)
        shuffled = PointCloud3D(cloud.r[perm], cloud.theta[perm], cloud.z[perm])
        a = project(cloud, 90, (-1.0, 2.0))
        b = project(shuffled, 90, (-1.0, 2.0))
        assert np.array_equal(a.ranges, b.ranges)

    @given(st.integers(1, 64), st.floats(0.0, 20.0), st.floats(-3.14, 3.13))
    @settings(max_examples=100, deadline=None)
    def test_adding_a_point_never_increases_any_bin(self, n_bins, r, theta):
        base = PointCloud3D(np.array([5.0, 7.0]), np.array([0.5, -2.0]), np.array([0.0, 0.0]))
        extended = PointCloud3D(
            np.append(base.r, r), np.append(base.theta, theta), np.append(base.z, 0.0)
        )
        a = project(base, n_bins, (-1.0, 1.0))
        b = project(extended, n_bins, (-1.0, 1.0))
        assert np.all(b.ranges <= a.ranges)

    def test_validation(self):
        cloud = PointCloud3D(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            project(cloud, 0, (-1.0, 1.0))
        with pytest.raises(ValueError):
            project(cloud, 4, (1.0, -1.0))
        with pytest.raises(ValueError):
            PointCloud3D(np.array([-1.0]), np.array([0.0]), np.array([0.0]))


class TestPayloads:
    def test_default_comparison(self):
        scan = Scan2D(np.full(360, math.inf))
        rng = random.Random(1)
        cloud = random_cloud(rng, 10_000)
        cmp = payload_comparison(scan, cloud)
        assert cmp.scan_bytes == 1440
        assert cmp.cloud_bytes == 120_000
        assert cmp.reduction == pytest.approx(0.988)

    def test_empty_cloud_no_reduction(self):
        scan = Scan2D(np.full(8, math.inf))
        cloud = PointCloud3D(np.array([]), np.array([]), np.array([]))
        cmp = payload_comparison(scan, cloud)
        assert cmp.cloud_bytes == 0
        assert cmp.reduction is None

    def test_360_points_vs_360_bins(self):
        scan = Scan2D(np.full(360, math.inf))
        rng = random.Random(2)
        cloud = random_cloud(rng, 360)
        assert scan_payload_size(scan) == 1440
        assert cloud_payload_size(cloud) == 4320

