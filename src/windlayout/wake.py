"""Jensen top-hat wake model: single-wake deficits, wake-interaction sets and
root-sum-square superposition into effective wind speeds."""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import circle_overlap_area, overlap_areas, rotate_xy

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
    overridden through the run configuration.
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
        finite = (self.rotor_radius, self.hub_height, self.rated_power, self.cut_in,
                  self.rated_speed, *self.power_poly)
        if not all(math.isfinite(x) for x in finite):
            raise ValueError("turbine values must be finite (cut_out may be inf: no cut-out)")


def decay_factor(spec: TurbineSpec) -> float:
    """Wake expansion rate k = 0.5 / ln(hub_height / surface_roughness)."""
    if not spec.hub_height > spec.surface_roughness > 0:
        raise ValueError("need hub_height > surface_roughness > 0")
    return 0.5 / math.log(spec.hub_height / spec.surface_roughness)


def wake_radius(spec: TurbineSpec, distance: float) -> float:
    """Radius of the linearly expanding wake a given distance downwind."""
    if distance < 0:
        raise ValueError("distance must be >= 0")
    return spec.rotor_radius + decay_factor(spec) * distance


def _deficit_numerator(spec: TurbineSpec, mode: str) -> float:
    if mode not in NUMERATOR_MODES:
        raise ValueError(f"numerator must be one of {NUMERATOR_MODES}, got {mode!r}")
    root = math.sqrt(1.0 - spec.thrust_coefficient)
    return 1.0 + root if mode == "paper_literal" else 1.0 - root


def pairwise_deficit(
    spec: TurbineSpec, distance: float, overlap_area: float, numerator: str = "standard"
) -> float:
    """Fractional speed deficit one turbine's wake imposes on another.

    Parameters
    ----------
    spec : TurbineSpec
        Shared turbine parameters.
    distance : float
        Downwind separation, metres (> 0; zero-distance pairs are outside
        each other's wake set by definition).
    overlap_area : float
        Intersection of the wake disc with the downstream rotor disc, m**2.
    numerator : str
        "standard" uses 1 - sqrt(1 - Ct); "paper_literal" keeps the
        1 + sqrt(1 - Ct) variant, which can exceed unity at short range.

    Returns
    -------
    float
        Deficit before superposition; zero when the overlap is zero.
    """
    if distance <= 0:
        raise ValueError("distance must be positive; filter pairs by wake set first")
    rotor_area = math.pi * spec.rotor_radius**2
    if not 0.0 <= overlap_area <= rotor_area * (1.0 + 1e-12):
        raise ValueError("overlap_area must lie in [0, pi * rotor_radius**2]")
    k = decay_factor(spec)
    amp = _deficit_numerator(spec, numerator) / (1.0 + k * distance / spec.rotor_radius) ** 2
    return amp * (overlap_area / rotor_area)


def _check_distinct(points: np.ndarray) -> None:
    if len(np.unique(points, axis=0)) != len(points):
        raise ValueError("positions must be pairwise distinct")


def squared_deficit_matrix(
    positions, theta: float, spec: TurbineSpec, numerator: str = "standard"
) -> np.ndarray:
    """(n, n) matrix of squared pairwise deficits under one wind direction.

    Entry [i, j] is the squared deficit turbine j's wake imposes on turbine i,
    zero when j is not strictly upwind of i or the discs do not overlap.
    Root-sum-square superposition reduces this matrix along its second axis.
    """
    pts = np.asarray(positions, dtype=float)
    _check_distinct(pts)
    k = decay_factor(spec)
    R = spec.rotor_radius

    xy = rotate_xy(pts, theta)
    x, y = xy[:, 0], xy[:, 1]
    d = y[None, :] - y[:, None]  # d[i, j] = y_j - y_i; j upwind of i when > 0
    off = np.abs(x[:, None] - x[None, :])
    upwind = d > DOWNWIND_EPS
    dd = np.where(upwind, d, 1.0)

    area = overlap_areas(R + k * dd, R, off)
    amp = _deficit_numerator(spec, numerator) / (1.0 + k * dd / R) ** 2
    deficit = np.where(upwind, amp * (area / (math.pi * R**2)), 0.0)
    return deficit**2


@dataclass(frozen=True)
class WakeGraphEntry:
    """One upwind-downwind interaction: j's wake reaching turbine i."""

    downstream: int
    upstream: int
    distance: float  # m, along the wind
    offset: float  # m, crosswind
    overlap_area: float  # m**2


def build_wake_sets(positions, theta: float, spec: TurbineSpec) -> list:
    """Enumerate all wake interactions for one wind direction.

    Positions are rotated into the wind-aligned frame; an entry is emitted
    for every ordered pair whose downwind separation is strictly positive and
    whose rotor/wake discs overlap. Entries are ordered by downstream index,
    then upstream index.
    """
    pts = np.asarray(positions, dtype=float)
    _check_distinct(pts)
    k = decay_factor(spec)
    R = spec.rotor_radius
    xy = rotate_xy(pts, theta)
    x, y = xy[:, 0], xy[:, 1]

    entries = []
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(y[j] - y[i])
            if d <= DOWNWIND_EPS:
                continue
            off = abs(float(x[i] - x[j]))
            area = circle_overlap_area(R + k * d, R, off)
            if area > 0.0:
                entries.append(WakeGraphEntry(i, j, d, off, area))
    return entries


def effective_speeds(
    positions, theta: float, v: float, spec: TurbineSpec, numerator: str = "standard"
) -> np.ndarray:
    """Per-turbine wind speed u_i = v * (1 - rss of upwind deficits).

    The combined deficit is clamped at 1 so dense layouts cannot drive the
    speed negative; a turbine with no upwind wakes sees exactly v.
    """
    if v < 0:
        raise ValueError("free wind speed must be >= 0")
    sq = squared_deficit_matrix(positions, theta, spec, numerator)
    combined = np.minimum(np.sqrt(sq.sum(axis=1)), 1.0)
    return v * (1.0 - combined)
