"""Coordinate transforms for a front-facing planar transmit array.

Three frames are used throughout the toolkit:

* rectangular space (x, y, z) with the array in the x = 0 plane facing +x,
* a modified spherical frame (r, theta, phi) where theta is azimuth,
  phi is elevation measured against a tilted reference, and both angles
  use the single-argument arctangent (valid because x > 0 is enforced),
* a normalized 2D plane at distance d in front of the array that bounds
  where an airborne eavesdropper may hover, with coordinates (u, v) in
  [-1, 1]^2; UavPlaneSpec holds its d and beta, and airspy._Tables maps
  every grid cell, tilted by the scenario's theta_tilt, to its angles.

All angles are radians internally; degrees appear only at CLI boundaries.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class RectPoint(NamedTuple):
    """Point in rectangular space, meters."""

    x: float
    y: float
    z: float


class SphPoint(NamedTuple):
    """Point in the modified spherical frame.

    Attributes:
        r: range in meters, r > 0.
        theta: azimuth in radians, in (-pi/2, pi/2).
        phi: elevation in radians, includes the tilt offset.
    """

    r: float
    theta: float
    phi: float


class UavPlaneSpec(NamedTuple):
    """Geometry of the hover plane parallel to the (tilted) array face.

    Attributes:
        d: perpendicular distance from the array to the plane, meters, > 0.
        beta: full angular aperture of the plane as seen from the array,
            radians, in (0, pi). The tilt is airspy.Scenario.theta_tilt.
    """

    d: float
    beta: float


def rect_to_msph(p, theta_tilt: float = 0.0) -> SphPoint:
    """Convert a rectangular point to the modified spherical frame.

    Args:
        p: (x, y, z) triple or RectPoint, with x > 0 (front half-space).
        theta_tilt: elevation reference tilt in radians.

    Returns:
        SphPoint with r = sqrt(x^2+y^2+z^2), theta = arctan(y/x),
        phi = arctan(z/x) + theta_tilt.

    Raises:
        ValueError: if x <= 0. Points on or behind the array plane have no
            well-defined direction in the single-argument form, and the
            origin has no direction at all.
    """
    x, y, z = p
    if x <= 0:
        raise ValueError(
            f"point must lie strictly in front of the array (x > 0), got x={x}"
        )
    r = math.sqrt(x * x + y * y + z * z)
    theta = math.atan(y / x)
    phi = math.atan(z / x) + theta_tilt
    return SphPoint(r, theta, phi)
