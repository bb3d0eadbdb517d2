"""Jensen top-hat wake model: single-wake deficits by pair offset and
root-sum-square superposition into effective wind speeds."""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import overlap_areas

# Rotated-frame downwind separations at or below this (metres) count as
# exactly side-by-side: a wake interaction needs strictly positive downwind
# distance, and trig round-off must not promote crosswind neighbours into
# zero-distance wakes.
DOWNWIND_EPS = 1e-6

NUMERATOR_MODES = ("standard", "paper_literal")


@dataclass(frozen=True)
class TurbineSpec:
    """Physical description of the single turbine type used farm-wide.

    Defaults describe a 5 MW offshore class machine; every field can be
    overridden through the run configuration. ``deficit_numerator`` picks the
    Jensen deficit numerator (see ``squared_deficits``): "standard",
    1 - sqrt(1 - Ct), or "paper_literal", 1 + sqrt(1 - Ct).
    """

    rotor_radius: float = 63.0  # m
    hub_height: float = 90.0  # m
    thrust_coefficient: float = 0.88
    surface_roughness: float = 0.0005  # m, open-sea default
    rated_power: float = 5000.0  # kW
    cut_in: float = 3.0  # m/s
    rated_speed: float = 14.0  # m/s
    cut_out: float = 25.0  # m/s
    power_poly: tuple = (-0.9114, 21.6654, -113.1189, 201.1211, -55.0267)
    deficit_numerator: str = "standard"

    def __post_init__(self):
        if not self.rotor_radius > 0:
            raise ValueError("rotor_radius must be positive")
        if not self.hub_height > self.rotor_radius:
            raise ValueError("hub_height must exceed rotor_radius")
        if not 0.0 < self.thrust_coefficient < 1.0:
            raise ValueError("thrust_coefficient must lie in (0, 1)")
        if not 0.0 < self.surface_roughness < self.hub_height:
            raise ValueError("surface_roughness must lie in (0, hub_height)")
        if not self.rated_power > 0:
            raise ValueError("rated_power must be positive")
        if not self.cut_in < self.rated_speed < self.cut_out:
            raise ValueError("need cut_in < rated_speed < cut_out")
        if len(self.power_poly) != 5:
            raise ValueError("power_poly must hold 5 quartic coefficients")
        if self.deficit_numerator not in NUMERATOR_MODES:
            raise ValueError(f"deficit_numerator must be one of {NUMERATOR_MODES}, "
                             f"got {self.deficit_numerator!r}")
        finite = (self.rotor_radius, self.hub_height, self.rated_power, self.cut_in,
                  self.rated_speed, *self.power_poly)
        if not all(math.isfinite(x) for x in finite):
            raise ValueError("turbine values must be finite (cut_out may be inf: no cut-out)")


def decay_factor(spec: TurbineSpec) -> float:
    """Wake expansion rate k = 0.5 / ln(hub_height / surface_roughness)."""
    return 0.5 / math.log(spec.hub_height / spec.surface_roughness)


def wake_radius(spec: TurbineSpec, distance: float) -> float:
    """Radius of the linearly expanding wake a given distance downwind."""
    if distance < 0:
        raise ValueError("distance must be >= 0")
    return spec.rotor_radius + decay_factor(spec) * distance


def _deficit_numerator(spec: TurbineSpec) -> float:
    root = math.sqrt(1.0 - spec.thrust_coefficient)
    return 1.0 + root if spec.deficit_numerator == "paper_literal" else 1.0 - root


def _check_distinct(points: np.ndarray) -> None:
    if len(np.unique(points, axis=0)) != len(points):
        raise ValueError("positions must be pairwise distinct")


def squared_deficits(dx, dy, theta: float, spec: TurbineSpec):
    """Squared deficit a turbine's wake imposes on another turbine placed at
    offset (dx, dy) from it, under one wind direction.

    dx, dy broadcast together: the position of the wake-casting turbine minus
    that of the waked one, metres. In the wind-aligned frame of
    :func:`geometry.rotate_frame` the caster sits d = s*dx + c*dy upwind of the
    other turbine at crosswind distance |c*dx - s*dy| (c, s: cosine and sine
    of theta). Zero unless d > DOWNWIND_EPS and the discs overlap.

    The deficit is numerator / (1 + k*d/R)**2 times the overlap fraction of
    the downstream rotor, the numerator chosen by ``spec.deficit_numerator``:
    "standard" is 1 - sqrt(1 - Ct); "paper_literal" keeps the 1 + sqrt(1 - Ct)
    variant, which can exceed unity at short range.
    """
    k = decay_factor(spec)
    R = spec.rotor_radius
    rad = math.radians(theta)
    c, s = math.cos(rad), math.sin(rad)
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    d = s * dx + c * dy
    off = np.abs(c * dx - s * dy)
    upwind = d > DOWNWIND_EPS
    dd = np.where(upwind, d, 1.0)

    area = overlap_areas(R + k * dd, R, off)
    amp = _deficit_numerator(spec) / (1.0 + k * dd / R) ** 2
    deficit = np.where(upwind, amp * (area / (math.pi * R**2)), 0.0)
    return deficit**2


def squared_deficit_matrix(positions, theta: float, spec: TurbineSpec) -> np.ndarray:
    """(n, n) matrix of squared pairwise deficits under one wind direction.

    Entry [i, j] is the squared deficit turbine j's wake imposes on turbine i,
    zero when j is not strictly upwind of i or the discs do not overlap.
    Root-sum-square superposition reduces this matrix along its second axis.
    """
    pts = np.asarray(positions, dtype=float)
    _check_distinct(pts)
    dx = pts[None, :, 0] - pts[:, None, 0]  # dx[i, j] = x_j - x_i
    dy = pts[None, :, 1] - pts[:, None, 1]
    return squared_deficits(dx, dy, theta, spec)


def effective_speeds(positions, theta: float, v: float, spec: TurbineSpec) -> np.ndarray:
    """Per-turbine wind speed u_i = v * (1 - rss of upwind deficits).

    The combined deficit is clamped at 1 so dense layouts cannot drive the
    speed negative; a turbine with no upwind wakes sees exactly v.
    """
    if v < 0:
        raise ValueError("free wind speed must be >= 0")
    sq = squared_deficit_matrix(positions, theta, spec)
    combined = np.minimum(np.sqrt(sq.sum(axis=1)), 1.0)
    return v * (1.0 - combined)
