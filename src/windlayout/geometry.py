"""Planar geometry for the wake model: wind-frame rotation and exact
circle-circle intersection areas."""

import math
from typing import NamedTuple

import numpy as np


class Point(NamedTuple):
    """A position in the farm plane, metres east (x) and north (y)."""

    x: float
    y: float


def rotate_frame(p, theta: float) -> Point:
    """Rotate a point into the frame aligned with the current wind direction.

    Parameters
    ----------
    p : (x, y) pair
        Original coordinates, metres.
    theta : float
        Change of wind direction in degrees, clockwise from the reference
        direction. The point is mapped through the matrix
        [[cos t, -sin t], [sin t, cos t]].

    Returns
    -------
    Point
        Coordinates in the rotated frame.
    """
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
        raise ValueError("rotate_frame requires finite coordinates and angle")
    rad = math.radians(theta)
    c, s = math.cos(rad), math.sin(rad)
    return Point(c * x - s * y, s * x + c * y)


def rotate_xy(points, theta: float) -> np.ndarray:
    """Rotate an (n, 2) array of positions into the wind-aligned frame."""
    pts = np.asarray(points, dtype=float)
    rad = math.radians(theta)
    c, s = math.cos(rad), math.sin(rad)
    out = np.empty_like(pts)
    out[:, 0] = c * pts[:, 0] - s * pts[:, 1]
    out[:, 1] = s * pts[:, 0] + c * pts[:, 1]
    return out


def overlap_areas(wake_radius, rotor_radius, offset) -> np.ndarray:
    """Vectorised disc-intersection area.

    All arguments broadcast together. Disjoint discs give 0, containment
    gives the full area of the smaller disc, and the remaining regime is the
    closed-form lens area (sum of the two circular segments cut off by the
    common chord). The lens expression is evaluated only inside that regime:
    at a tiny non-zero offset it would divide by the offset and overflow.
    """
    r, R, d = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in
                                    (wake_radius, rotor_radius, offset)))
    small = np.minimum(r, R)
    big = np.maximum(r, R)
    disjoint = d >= r + R
    out = np.where(disjoint, 0.0, np.pi * small**2)

    lens = ~disjoint & (d > big - small)
    r, R, d = r[lens], R[lens], d[lens]
    # distance from each centre to the chord through the two crossing points
    d1 = (r**2 - R**2 + d**2) / (2.0 * d)
    d2 = d - d1
    t1 = np.clip(d1 / r, -1.0, 1.0)
    t2 = np.clip(d2 / R, -1.0, 1.0)
    seg1 = r**2 * np.arccos(t1) - d1 * np.sqrt(np.maximum(r**2 - d1**2, 0.0))
    seg2 = R**2 * np.arccos(t2) - d2 * np.sqrt(np.maximum(R**2 - d2**2, 0.0))
    out[lens] = seg1 + seg2
    return out


def circle_overlap_area(wake_radius: float, rotor_radius: float, offset: float) -> float:
    """Exact intersection area of a wake disc and a rotor disc.

    Scalar twin of :func:`overlap_areas`, kept in plain ``math`` so tight
    pair loops stay cheap.

    Parameters
    ----------
    wake_radius : float
        Radius of the expanded wake disc, metres (> 0).
    rotor_radius : float
        Rotor radius of the downstream turbine, metres (> 0).
    offset : float
        Crosswind distance between the two centres, metres (>= 0).

    Returns
    -------
    float
        Area in m**2, in [0, pi * min(wake_radius, rotor_radius)**2].
    """
    for name, val in (("wake_radius", wake_radius), ("rotor_radius", rotor_radius)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {val!r}")
    if not (math.isfinite(offset) and offset >= 0.0):
        raise ValueError(f"offset must be finite and >= 0, got {offset!r}")

    r, R, d = wake_radius, rotor_radius, offset
    if d >= r + R:
        return 0.0
    if d <= abs(r - R):
        return math.pi * min(r, R) ** 2
    d1 = (r * r - R * R + d * d) / (2.0 * d)
    d2 = d - d1
    t1 = min(max(d1 / r, -1.0), 1.0)
    t2 = min(max(d2 / R, -1.0), 1.0)
    seg1 = r * r * math.acos(t1) - d1 * math.sqrt(max(r * r - d1 * d1, 0.0))
    seg2 = R * R * math.acos(t2) - d2 * math.sqrt(max(R * R - d2 * d2, 0.0))
    return seg1 + seg2
