"""Geodesy, checked against independent oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbridge.geo import (
    GeoPoint,
    gps_to_scene,
    haversine_distance,
    scene_to_gps,
    tangent_plane_offset,
)

R = 6_371_000.0


def sphere_oracle(a: GeoPoint, b: GeoPoint, r: float = R) -> float:
    """Independent great-circle reference: spherical Vincenty (atan2 of chord
    components), a different formulation from the haversine under test."""
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


class TestHaversine:
    def test_identical_points(self):
        p = GeoPoint(0.0, 0.0)
        assert haversine_distance(p, p) == 0.0

    def test_quarter_great_circle(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, math.pi / 2)
        assert haversine_distance(a, b) == pytest.approx(10_007_543.398010286, abs=1e-3)

    def test_small_offset_matches_oracle_to_sub_mm(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(math.radians(0.01), math.radians(0.01))
        expected = 1572.5337292863207  # frozen from the oracle above
        assert sphere_oracle(a, b) == pytest.approx(expected, abs=1e-9)
        assert haversine_distance(a, b) == pytest.approx(expected, abs=1e-3)

    def test_100_random_pairs_within_1mm_of_oracle(self):
        rng = random.Random(20240401)
        for _ in range(100):
            a = GeoPoint(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
            b = GeoPoint(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
            assert haversine_distance(a, b) == pytest.approx(sphere_oracle(a, b), abs=1e-3)

    @given(
        lat1=st.floats(-1.4, 1.4),
        lon1=st.floats(-3.1, 3.1),
        lat2=st.floats(-1.4, 1.4),
        lon2=st.floats(-3.1, 3.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        d_ab = haversine_distance(a, b)
        assert d_ab >= 0.0
        assert d_ab == haversine_distance(b, a)
        assert d_ab <= math.pi * R * (1 + 1e-12)
        if (lat1, lon1) == (lat2, lon2):
            assert d_ab == 0.0

    def test_zero_iff_identical(self):
        a = GeoPoint(0.3, 0.3)
        b = GeoPoint(0.3, 0.3 + 1e-9)
        assert haversine_distance(a, b) > 0.0


class TestTangentPlane:
    def test_equator_east_offset(self):
        ref = GeoPoint(0.0, 0.0, 0.0)
        target = GeoPoint(0.0, 0.001, 0.0)
        off = tangent_plane_offset(ref, target)
        assert off.east == pytest.approx(6371.0)
        assert off.north == 0.0
        assert off.up == 0.0

    def test_identity(self):
        p = GeoPoint(0.5, 0.5, 12.0)
        off = tangent_plane_offset(p, p)
        assert (off.east, off.up, off.north) == (0.0, 0.0, 0.0)

    def test_cosine_shrinks_east_axis(self):
        lat = math.radians(60.0)
        ref = GeoPoint(lat, 0.0, 0.0)
        target = GeoPoint(lat, 1e-4, 0.0)
        off = tangent_plane_offset(ref, target)
        assert off.east == pytest.approx(R * math.cos(lat) * 1e-4)
        assert off.east == pytest.approx(318.55, abs=0.01)

    @given(
        lat=st.floats(-1.2, 1.2),
        lon=st.floats(-3.0, 3.0),
        dlat=st.floats(-0.0035, 0.0035),
        dlon=st.floats(-0.0035, 0.0035),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_per_axis_haversine_below_1e5(self, lat, lon, dlat, dlon):
        # the two selectable conversion methods agree per axis for small areas
        ref = GeoPoint(lat, lon)
        target = GeoPoint(lat + dlat, lon + dlon)
        off = tangent_plane_offset(ref, target)
        east_h = haversine_distance(ref, GeoPoint(lat, lon + dlon))
        north_h = haversine_distance(ref, GeoPoint(lat + dlat, lon))
        if east_h > 1e-6:
            assert abs(abs(off.east) - east_h) / east_h < 1e-5
        if north_h > 1e-6:
            assert abs(abs(off.north) - north_h) / north_h < 1e-5
        norm_t = math.hypot(off.east, off.north)
        norm_h = math.hypot(east_h, north_h)
        if norm_h > 1e-6:
            assert abs(norm_t - norm_h) / norm_h < 1e-5


class TestGpsToScene:
    def test_identity_point(self):
        ref = GeoPoint(0.2, 0.3, 5.0)
        coord = gps_to_scene(ref, ref, scale=2.0, extent=10.0)
        assert (coord.x, coord.y, coord.z) == (0.0, 0.0, 0.0)

    def test_identity_scale_passes_offsets_through(self):
        ref = GeoPoint(0.0, 0.0, 0.0)
        target = GeoPoint(4.0 / R, 3.0 / R, 0.0)  # 3 m east, 4 m north
        coord = gps_to_scene(ref, target, scale=1.0, extent=10.0)
        assert coord.x == pytest.approx(3.0)
        assert coord.z == pytest.approx(4.0)
        assert coord.y == 0.0

    def test_large_extent_uses_per_axis_great_circle(self):
        ref = GeoPoint(0.0, 0.0, 0.0)
        target = GeoPoint(math.radians(0.01), math.radians(0.01), 10.0)
        coord = gps_to_scene(ref, target, scale=1.0, extent=2_000_000.0)
        expected = 1111.9492664455875  # frozen equatorial arc per 0.01 degree
        assert coord.x == pytest.approx(expected, abs=1e-6)
        assert coord.z == pytest.approx(expected, abs=1e-6)
        assert coord.y == pytest.approx(10.0)

    def test_sign_correction_when_target_south_west(self):
        ref = GeoPoint(math.radians(10.0), math.radians(10.0))
        target = GeoPoint(math.radians(9.99), math.radians(9.99))
        for extent in (10.0, 2_000_000.0):
            coord = gps_to_scene(ref, target, scale=1.0, extent=extent)
            assert coord.x < 0
            assert coord.z < 0

    def test_a_waypoint_takes_the_signs_and_height_of_its_direction(self):
        ref = GeoPoint(math.radians(39.25), math.radians(-76.71), 10.0)
        north_east_above = GeoPoint(math.radians(39.2505), math.radians(-76.7095), 12.0)
        coord = gps_to_scene(ref, north_east_above, scale=1.0, extent=100.0)
        assert coord.x > 0 and coord.z > 0 and coord.y == pytest.approx(2.0)
        south_west_below = GeoPoint(math.radians(39.2495), math.radians(-76.7105), 8.0)
        coord = gps_to_scene(ref, south_west_below, scale=1.0, extent=100.0)
        assert coord.x < 0 and coord.z < 0 and coord.y == pytest.approx(-2.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            gps_to_scene(GeoPoint(0, 0), GeoPoint(0, 0), scale=0.0)

    def test_roundtrip_small_area(self):
        rng = random.Random(7)
        for _ in range(50):
            ref = GeoPoint(rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0), rng.uniform(-50, 50))
            target = GeoPoint(
                ref.latitude + rng.uniform(-0.004, 0.004),
                ref.longitude + rng.uniform(-0.004, 0.004),
                ref.altitude + rng.uniform(-10, 10),
            )
            scale = rng.choice([0.5, 1.0, 3.0])
            coord = gps_to_scene(ref, target, scale, extent=100.0)
            back = scene_to_gps(ref, coord, scale)
            assert back.latitude == pytest.approx(target.latitude, abs=1e-9)
            assert back.longitude == pytest.approx(target.longitude, abs=1e-9)
            assert back.altitude == pytest.approx(target.altitude, abs=1e-6)


class TestGeoPointValidation:
    @pytest.mark.parametrize(
        "lat,lon,alt",
        [(2.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, math.inf), (0.0, 0.0, math.nan)],
    )
    def test_rejects_out_of_range(self, lat, lon, alt):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon, alt)
