"""Farm grid construction, wind-distribution builders for the four study
cases, and the deterministic uniform baseline layout."""

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import Layout


@dataclass(frozen=True, eq=False)
class Grid:
    """Square farm area discretised into cells; candidate turbine positions
    are the cell corners, indexed row-major from the origin."""

    side: float  # m
    cells: int  # per side
    edge: float  # m, cell width = side / cells
    points: np.ndarray  # (M, 2), M = (cells + 1)**2

    @property
    def count(self) -> int:
        return len(self.points)


def build_grid(side: float, cells: int) -> Grid:
    """Lattice of (cells+1)**2 corner points with spacing side/cells."""
    if not 0 < side < math.inf:
        raise ValueError("side must be finite and positive")
    if cells < 1:
        raise ValueError("cells must be >= 1")
    edge = side / cells
    axis = np.arange(cells + 1) * edge
    cols, rows = np.meshgrid(axis, axis)  # row-major: index = row*(cells+1)+col
    points = np.column_stack([cols.ravel(), rows.ravel()])
    return Grid(float(side), int(cells), edge, points)


@dataclass(frozen=True)
class WindScenario:
    """Discrete joint wind distribution: (direction deg, speed m/s, weight)
    triples summing to one."""

    bins: tuple

    def __post_init__(self):
        bins = tuple((float(t), float(v), float(w)) for t, v, w in self.bins)
        if not bins:
            raise ValueError("scenario needs at least one bin")
        if not all(math.isfinite(x) for b in bins for x in b):
            raise ValueError("bin directions, speeds and weights must be finite")
        if any(v < 0 for _, v, _ in bins):
            raise ValueError("bin speeds must be non-negative")
        if any(w < 0 for _, _, w in bins):
            raise ValueError("bin weights must be non-negative")
        total = math.fsum(w for _, _, w in bins)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"bin weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "bins", bins)


def single_bin(theta: float, v: float) -> WindScenario:
    """Point-mass wind: one direction, one speed."""
    return WindScenario(((theta, v, 1.0),))


def uniform_directions(v: float, sectors: int = 12) -> WindScenario:
    """One speed, direction uniform over sector centres 360/sectors apart."""
    if sectors < 1:
        raise ValueError("sectors must be >= 1")
    width = 360.0 / sectors
    bins = tuple((k * width, v, 1.0 / sectors) for k in range(sectors))
    return WindScenario(bins)


def weibull_cdf(v: float, shape: float, scale: float) -> float:
    """Weibull cumulative distribution 1 - exp(-(v/scale)**shape)."""
    if v <= 0:
        return 0.0
    return 1.0 - math.exp(-((v / scale) ** shape))


def weibull_rose(
    shape: float = 2.1,
    scale: float = 10.5,
    speed_edges=tuple(range(31)),
    direction_weights=(1.0 / 12.0,) * 12,
) -> WindScenario:
    """Joint distribution: per-sector weight times Weibull speed-bin mass.

    Speed bins are consecutive intervals of ``speed_edges`` represented by
    their midpoints (an unbounded top bin is represented by its lower edge);
    masses are renormalised over the covered speed range.
    """
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    edges = [float(e) for e in speed_edges]
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("speed_edges must be at least two strictly increasing values")
    dir_w = [float(w) for w in direction_weights]
    if any(w < 0 for w in dir_w) or abs(math.fsum(dir_w) - 1.0) > 1e-9:
        raise ValueError("direction weights must be non-negative and sum to 1")

    masses, mids = [], []
    for lo, hi in zip(edges, edges[1:]):
        masses.append(weibull_cdf(hi, shape, scale) - weibull_cdf(lo, shape, scale))
        mids.append((lo + hi) / 2.0 if math.isfinite(hi) else lo)
    total = math.fsum(masses)
    if total <= 0:
        raise ValueError("speed bins carry no Weibull mass")
    masses = [m / total for m in masses]

    sectors = len(dir_w)
    width = 360.0 / sectors
    bins = tuple(
        (s * width, mid, dir_w[s] * mass)
        for s in range(sectors)
        for mid, mass in zip(mids, masses)
    )
    return WindScenario(bins)


def case_scenario(name: str) -> WindScenario:
    """Wind distribution preset for the four study cases."""
    presets = {
        "case1": lambda: single_bin(0.0, 12.0),
        "case2": lambda: single_bin(0.0, 20.0),
        "case3": lambda: uniform_directions(12.0, 12),
        "case4": lambda: weibull_rose(),
    }
    if name not in presets:
        raise ValueError(f"unknown case {name!r}; expected one of {sorted(presets)}")
    return presets[name]()


def _spaced_columns(cells: int, k: int) -> list:
    """k evenly spaced columns of 0..cells; if k == 1, the centre one (the lower on a tie)."""
    return [int(round(c)) for c in np.linspace(0, cells, k)] if k > 1 else [cells // 2]


def uniform_layout(grid: Grid, n: int, pattern: str = "line") -> Layout:
    """Deterministic evenly spaced baseline arrangement.

    ``line`` places the turbines on equally spaced columns of the centre row;
    ``square_lattice`` spreads them over a near-square sub-lattice.
    """
    cols = grid.cells + 1
    if pattern == "line":
        if not 1 <= n <= cols:
            raise ValueError(f"line pattern fits at most {cols} turbines")
        rows, columns = _spaced_columns(grid.cells, 1), _spaced_columns(grid.cells, n)
    elif pattern == "square_lattice":
        if not 1 <= n <= grid.count:
            raise ValueError("square_lattice pattern needs 1 <= n <= grid.count")
        k = math.isqrt(n - 1) + 1  # smallest k with k*k >= n, so k <= cols
        rows = columns = _spaced_columns(grid.cells, k)
    else:
        raise ValueError("pattern must be 'line' or 'square_lattice'")
    return Layout(tuple(r * cols + c for r in rows for c in columns)[:n], grid.count)
