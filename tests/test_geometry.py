"""Coordinate-frame tests: rectangular <-> modified spherical <-> hover plane."""

import math

import pytest
from hypothesis import given, strategies as st

from csbsim.geometry import RectPoint, UavPlaneSpec, rect_to_msph

from oracles import msph_angles_of_plane_coord, uav_plane_to_rect


def test_rect_to_msph_known_point():
    # Receiver 3 m in front, 8 m below, tilt 15 degrees.
    s = rect_to_msph(RectPoint(3.0, 0.0, -8.0), theta_tilt=math.radians(15))
    assert s.r == pytest.approx(8.54400374531753, abs=1e-12)
    assert s.theta == 0.0
    assert s.phi == pytest.approx(-0.950226268725175, abs=1e-12)


def test_rect_to_msph_accepts_plain_tuples():
    s = rect_to_msph((1.0, 1.0, 0.0))
    assert s.theta == pytest.approx(math.pi / 4)
    assert s.phi == 0.0


@pytest.mark.parametrize("x", [0.0, -1e-9, -3.0])
def test_rect_to_msph_rejects_rear_halfspace(x):
    with pytest.raises(ValueError):
        rect_to_msph((x, 1.0, 1.0))


def test_plane_spec_validation():
    with pytest.raises(ValueError):
        uav_plane_to_rect((0, 0), UavPlaneSpec(0.0, 1.0))
    with pytest.raises(ValueError):
        uav_plane_to_rect((0, 0), UavPlaneSpec(1.0, math.pi))
    with pytest.raises(ValueError):
        uav_plane_to_rect((0, 0), UavPlaneSpec(1.0, -0.5))


@pytest.mark.parametrize("c", [(1.5, 0.0), (0.0, -1.01), (2.0, 2.0)])
def test_plane_coord_out_of_range(c):
    with pytest.raises(ValueError):
        uav_plane_to_rect(c, UavPlaneSpec(1.0, math.radians(160)))


def test_plane_boresight_maps_to_zero_angles():
    for tilt_deg in (0.0, 15.0, -40.0):
        spec = UavPlaneSpec(2.0, math.radians(120))
        theta, phi = msph_angles_of_plane_coord((0.0, 0.0), spec, math.radians(tilt_deg))
        assert theta == pytest.approx(0.0, abs=1e-15)
        assert phi == pytest.approx(0.0, abs=1e-15)


def test_plane_untilted_closed_form():
    # With no tilt: theta = arctan(v tan(beta/2)), phi = arctan(u tan(beta/2)).
    spec = UavPlaneSpec(1.0, math.radians(160))
    theta, phi = msph_angles_of_plane_coord((0.25, 0.5), spec)
    assert theta == pytest.approx(1.2317591358226117, abs=1e-12)
    assert phi == pytest.approx(math.atan(0.25 * 5.671281819617707), abs=1e-12)


def test_plane_edges_reach_half_aperture_untilted():
    spec = UavPlaneSpec(3.0, math.radians(100))
    theta, _ = msph_angles_of_plane_coord((0.0, 1.0), spec)
    assert theta == pytest.approx(math.radians(50), abs=1e-12)
    _, phi = msph_angles_of_plane_coord((-1.0, 0.0), spec)
    assert phi == pytest.approx(math.radians(-50), abs=1e-12)


def test_tilted_corner_falls_behind_array():
    # With a 15-degree tilt and a wide aperture the low-u corner of the
    # plane crosses the array face; its direction is undefined.
    spec, tilt = UavPlaneSpec(1.0, math.radians(160)), math.radians(15)
    p = uav_plane_to_rect((-0.7, 0.0), spec, tilt)
    assert p.x < 0
    with pytest.raises(ValueError):
        msph_angles_of_plane_coord((-0.7, 0.0), spec, tilt)


@given(
    u=st.floats(-1, 1),
    v=st.floats(-1, 1),
    d=st.floats(0.1, 50),
    beta=st.floats(0.1, 3.0),
    tilt=st.floats(-1.2, 1.2),
)
def test_plane_points_satisfy_plane_equation(u, v, d, beta, tilt):
    # Rotating the plane must keep every point at perpendicular distance d.
    spec = UavPlaneSpec(d, beta)
    p = uav_plane_to_rect((u, v), spec, tilt)
    lhs = p.x * math.cos(tilt) - p.z * math.sin(tilt)
    assert lhs == pytest.approx(d, rel=1e-12)


@given(u=st.floats(-1, 1), v=st.floats(-1, 1))
def test_plane_angles_within_aperture_untilted(u, v):
    # Exact only without tilt; a tilted plane can push corner cells past the
    # aperture (or behind the array), which consumers filter out themselves.
    spec = UavPlaneSpec(2.0, math.radians(90))
    theta, phi = msph_angles_of_plane_coord((u, v), spec)
    assert abs(theta) <= math.radians(45) + 1e-9
    assert abs(phi) <= math.radians(45) + 1e-9
