"""Geodetic-to-scene coordinate conversion.

Axis convention, used everywhere in this package: east -> x, up -> y,
north -> z. Horizontal scene axes come from per-axis great-circle distances
(longitude varying for x, latitude varying for z); the vertical axis is the
scaled altitude difference.

Method selection: operational extents above AREA_THRESHOLD_M2 (1 km^2) use
great-circle distances on a sphere of radius EARTH_RADIUS_M; smaller areas
use the local tangent plane approximation, which is cheaper and agrees with
the great-circle per-axis values to better than 1e-5 relative error for
angular separations under 0.005 rad. Both constants are fixed: every caller
converts on the same spherical earth.

All angles are radians; all lengths are meters unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0
AREA_THRESHOLD_M2 = 1_000_000.0  # 1 km^2


@dataclass(frozen=True)
class GeoPoint:
    """Geodetic coordinate: latitude/longitude in radians, altitude in meters."""

    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self) -> None:
        if not abs(self.latitude) <= math.pi / 2:
            raise ValueError(f"latitude {self.latitude} outside [-pi/2, pi/2]")
        if not abs(self.longitude) <= math.pi:
            raise ValueError(f"longitude {self.longitude} outside [-pi, pi]")
        if not math.isfinite(self.altitude):
            raise ValueError("altitude must be finite")


@dataclass(frozen=True)
class LocalOffset:
    """Tangent-plane offset from a reference point: east, up, north meters."""

    east: float
    up: float
    north: float

    def __post_init__(self) -> None:
        for v in (self.east, self.up, self.north):
            if not math.isfinite(v):
                raise ValueError("offset components must be finite")


@dataclass(frozen=True)
class SceneCoord:
    """Scene-space coordinate u = scale * offset, same axis convention."""

    x: float
    y: float
    z: float


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points on the spherical earth.

    Uses the atan2 form of the haversine conversion (identical value to the
    arcsin form, better conditioned near antipodal points). Symmetric,
    non-negative, bounded by pi * radius.
    """
    dphi = b.latitude - a.latitude
    dlmb = b.longitude - a.longitude
    h = math.sin(dphi / 2) ** 2 + math.cos(a.latitude) * math.cos(b.latitude) * math.sin(dlmb / 2) ** 2
    h = min(max(h, 0.0), 1.0)
    return EARTH_RADIUS_M * 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def tangent_plane_offset(ref: GeoPoint, target: GeoPoint) -> LocalOffset:
    """Small-area flat-earth offset of target relative to ref.

    east = r * cos(lat_ref) * dlon, north = r * dlat, up = dalt. Valid when
    the operational area is below AREA_THRESHOLD_M2.
    """
    east = EARTH_RADIUS_M * math.cos(ref.latitude) * (target.longitude - ref.longitude)
    north = EARTH_RADIUS_M * (target.latitude - ref.latitude)
    return LocalOffset(east, target.altitude - ref.altitude, north)


def _axis_distances_haversine(ref: GeoPoint, target: GeoPoint) -> tuple[float, float]:
    """Per-axis great-circle magnitudes: (east-axis, north-axis)."""
    east = haversine_distance(
        GeoPoint(ref.latitude, ref.longitude, 0.0),
        GeoPoint(ref.latitude, target.longitude, 0.0),
    )
    north = haversine_distance(
        GeoPoint(ref.latitude, ref.longitude, 0.0),
        GeoPoint(target.latitude, ref.longitude, 0.0),
    )
    return east, north


def gps_to_scene(ref: GeoPoint, target: GeoPoint, scale: float, extent: float = 0.0) -> SceneCoord:
    """Convert a geodetic target to scene coordinates around a reference.

    `extent` is the operational bounding-box area in m^2, supplied by the
    caller; above AREA_THRESHOLD_M2 the per-axis great-circle method is
    used, otherwise the tangent plane. Signs follow the direction of the
    target from the reference. Vertical is scale * (alt - alt_ref).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if extent > AREA_THRESHOLD_M2:
        east, north = _axis_distances_haversine(ref, target)
        if target.longitude < ref.longitude:
            east = -east
        if target.latitude < ref.latitude:
            north = -north
    else:
        off = tangent_plane_offset(ref, target)
        east, north = off.east, off.north
    return SceneCoord(scale * east, scale * (target.altitude - ref.altitude), scale * north)


def scene_to_gps(ref: GeoPoint, coord: SceneCoord, scale: float) -> GeoPoint:
    """Inverse of the tangent-plane branch of gps_to_scene.

    Exact for small-area conversions away from the poles; used to round-trip
    scene coordinates back to geodetic positions.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    east = coord.x / scale
    north = coord.z / scale
    lat = ref.latitude + north / EARTH_RADIUS_M
    lon = ref.longitude + east / (EARTH_RADIUS_M * math.cos(ref.latitude))
    return GeoPoint(lat, lon, ref.altitude + coord.y / scale)

