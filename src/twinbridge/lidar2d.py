"""3D point cloud to 2D range-scan projection.

The projection takes, per azimuth bin, the minimum range among points whose
height falls inside a band around the sensor plane; bins with no qualifying
point carry no return. The compact scan (4 bytes per bin) stands in for raw
clouds (12 bytes per point) in bandwidth comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

BYTES_PER_BIN = 4
BYTES_PER_POINT = 12


def wrap_azimuth(theta: float | np.ndarray) -> float | np.ndarray:
    """Wrap angles into [-pi, pi)."""
    return (np.asarray(theta) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class PointCloud3D:
    """Cylindrical points (range, azimuth, height); azimuth in [-pi, pi)."""

    r: np.ndarray
    theta: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=np.float64)
        theta = wrap_azimuth(np.asarray(self.theta, dtype=np.float64))
        z = np.asarray(self.z, dtype=np.float64)
        if not (r.shape == theta.shape == z.shape) or r.ndim != 1:
            raise ValueError("r, theta, z must be equal-length 1D arrays")
        if np.any(r < 0):
            raise ValueError("ranges must be >= 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class Scan2D:
    """Fixed-bin 2D scan over [-pi, pi); math.inf marks bins with no return."""

    ranges: np.ndarray

    def __post_init__(self) -> None:
        ranges = np.asarray(self.ranges, dtype=np.float64)
        if ranges.ndim != 1 or ranges.shape[0] < 1:
            raise ValueError("scan needs at least one bin")
        if np.any(ranges[np.isfinite(ranges)] < 0):
            raise ValueError("bin ranges must be >= 0")
        object.__setattr__(self, "ranges", ranges)

    @property
    def n_bins(self) -> int:
        return self.ranges.shape[0]


def azimuth_bin(theta: float | np.ndarray, n_bins: int) -> np.ndarray:
    """Bin index in [0, n_bins) for azimuths in [-pi, pi)."""
    idx = np.floor((np.asarray(theta) + math.pi) / TWO_PI * n_bins).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)


def project(
    cloud: PointCloud3D,
    n_bins: int,
    z_band: tuple[float, float],
) -> Scan2D:
    """Reduce a 3D cloud to a 2D scan: per-bin minimum range inside the band.

    Points with height outside [z_lo, z_hi] never contribute. Permutation
    invariant; adding points can only shrink bin ranges.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    z_lo, z_hi = z_band
    if not z_lo < z_hi:
        raise ValueError("z_band must satisfy z_lo < z_hi")
    ranges = np.full(n_bins, math.inf)
    mask = (cloud.z >= z_lo) & (cloud.z <= z_hi)
    if mask.any():
        bins = azimuth_bin(cloud.theta[mask], n_bins)
        np.minimum.at(ranges, bins, cloud.r[mask])
    return Scan2D(ranges)


def scan_payload_size(scan: Scan2D) -> int:
    return scan.n_bins * BYTES_PER_BIN


def cloud_payload_size(cloud: PointCloud3D) -> int:
    return len(cloud) * BYTES_PER_POINT


@dataclass(frozen=True)
class PayloadComparison:
    """Scan-vs-cloud serialized sizes; reduction is None when undefined."""

    scan_bytes: int
    cloud_bytes: int
    reduction: float | None


def payload_comparison(scan: Scan2D, cloud: PointCloud3D) -> PayloadComparison:
    """Compare scan and cloud payload sizes; empty clouds give no ratio."""
    s = scan_payload_size(scan)
    c = cloud_payload_size(cloud)
    if c == 0:
        return PayloadComparison(s, c, None)
    return PayloadComparison(s, c, 1.0 - s / c)

