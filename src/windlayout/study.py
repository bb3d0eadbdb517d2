"""Experiment harness: paired convergence traces, the area-shrinking sweep
with its cubic fit, and the uniform-baseline comparison."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .optimizer import FORBIDDEN_SEEDS, GAParams, run_aga, run_conventional_ga
from .power import FarmEvaluator
from .scenario import build_grid, uniform_layout


@dataclass(frozen=True)
class ShrinkSweepPoint:
    """Mean optimized output at one cell-edge size, relative to the largest
    swept edge."""

    edge: float  # m
    area_fraction: float  # (edge / edge0)**2
    mean_power: float  # kW, mean best power over the repeats
    power_fraction: float  # mean_power / baseline mean_power
    n_runs: int
    stderr: float  # kW, run-to-run standard error of the mean


@dataclass(frozen=True)
class PolyFit:
    coefficients: tuple  # highest degree first
    residual_norm: float


def fit_poly3(points) -> PolyFit:
    """Least-squares cubic through (x, y) pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError("cubic fit needs at least 4 points")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.unique(x).size < 2:
        raise ValueError("design is rank-deficient: all x equal")
    coeffs = np.polyfit(x, y, 3)
    residual = float(np.linalg.norm(np.polyval(coeffs, x) - y))
    return PolyFit(tuple(float(c) for c in coeffs), residual)


def repeat_seeds(base_seed: float, repeats: int) -> list:
    """Deterministic list of run seeds derived from one chaos seed.

    Consecutive iterates of the logistic map would put every run on the same
    orbit shifted by one draw, coupling the repeats; a golden-ratio offset
    instead starts each run on a well-separated orbit of its own.
    """
    if not 0.0 < base_seed < 1.0:
        raise ValueError("base seed must lie in (0, 1)")
    golden = 0.6180339887498949
    seeds = []
    for r in range(repeats):
        s = (base_seed + r * golden) % 1.0
        while s in FORBIDDEN_SEEDS or not 0.0 < s < 1.0:
            s = (s + 1e-6) % 1.0
        seeds.append(s)
    return seeds


def shrink_sweep(
    edges,
    scenario,
    spec,
    ga_params: GAParams,
    repeats: int,
    cells: int = 20,
    n_turbines: int = 16,
    spacing_check: str = "off",
) -> list:
    """Re-optimize the farm at successively smaller cell edges.

    The grid keeps its cell count while the edge shrinks; each edge is
    optimized ``repeats`` times with the same derived seed set and the mean
    best power is reported relative to the first (largest) edge.
    """
    edges = [float(e) for e in edges]
    descending = all(a > b for a, b in zip(edges, edges[1:]))
    if not (edges and descending and all(0 < e < math.inf for e in edges)):
        raise ValueError("edges must be finite, positive and strictly descending from the baseline")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if spacing_check not in ("off", "strict"):
        raise ValueError("spacing_check must be 'off' or 'strict'")
    if spacing_check == "strict":
        floor = 2.0 * spec.rotor_radius
        bad = [e for e in edges if e < floor]
        if bad:
            raise ValueError(
                f"spacing infeasible: edges {bad} put lattice points closer than 2R = {floor} m"
            )

    seeds = repeat_seeds(ga_params.chaos_seed, repeats)
    points = []
    baseline_power = None
    for edge in edges:
        grid = build_grid(edge * cells, cells)
        powers = []
        for seed in seeds:
            params = replace(ga_params, chaos_seed=seed)
            _, trace = run_aga(params, grid, scenario, spec, n_turbines)
            powers.append(trace[-1].best_power)
        mean_power = float(np.mean(powers))
        stderr = float(np.std(powers, ddof=1) / math.sqrt(repeats)) if repeats > 1 else 0.0
        if baseline_power is None:
            baseline_power = mean_power
        points.append(
            ShrinkSweepPoint(
                edge=edge,
                area_fraction=(edge / edges[0]) ** 2,
                mean_power=mean_power,
                power_fraction=mean_power / baseline_power,
                n_runs=repeats,
                stderr=stderr,
            )
        )
    return points


def power_drop_at_budget(sweep, budget: float):
    """Smallest swept edge whose fitted power drop stays within the budget:
    ``budget_edge`` on the cubic fitted to power_fraction vs edge."""
    return budget_edge(sweep, fit_poly3([(p.edge, p.power_fraction) for p in sweep]), budget)


def budget_edge(sweep, fit: PolyFit, budget: float):
    """Smallest swept edge whose power drop on ``fit`` stays within the budget.

    The fit is normalised at the baseline edge, so the baseline's predicted
    drop is exactly zero. Returns (edge, area saving relative to the baseline).
    """
    if not 0.0 <= budget < 1.0:
        raise ValueError("budget must lie in [0, 1)")
    if not sweep:
        raise ValueError("sweep is empty")
    base_edge = max(p.edge for p in sweep)
    base_val = float(np.polyval(fit.coefficients, base_edge))

    def predicted_drop(edge):
        return 1.0 - float(np.polyval(fit.coefficients, edge)) / base_val

    feasible = [p.edge for p in sweep if predicted_drop(p.edge) <= budget + 1e-12]
    if not feasible:
        raise ValueError("no sweep point stays within the power-drop budget")
    edge = min(feasible)
    return edge, 1.0 - (edge / base_edge) ** 2


@dataclass(frozen=True)
class ComparisonRecord:
    """Uniform baseline vs optimized layout under one scenario."""

    uniform_occupied: tuple
    uniform_power: float
    uniform_eta: float
    aga_occupied: tuple
    aga_power: float
    aga_eta: float


def compare_uniform_vs_aga(grid, scenario, spec, best, pattern: str = "line") -> ComparisonRecord:
    """Score the evenly spaced baseline of ``best.n`` turbines and the
    optimized layout ``best`` on one evaluator under the identical scenario;
    runs no search."""
    if best.m != grid.count:
        raise ValueError(f"best layout spans {best.m} cells, the grid has {grid.count}")
    evaluator = FarmEvaluator(grid.points, scenario, spec)
    uniform = uniform_layout(grid, best.n, pattern)
    uniform_result = evaluator.evaluate(uniform.occupied)
    best_result = evaluator.evaluate(best.occupied)
    return ComparisonRecord(
        uniform.occupied,
        uniform_result.total_power,
        uniform_result.efficiency,
        best.occupied,
        best_result.total_power,
        best_result.efficiency,
    )


def convergence_comparison(grid, scenario, spec, ga_params: GAParams, seeds, n_turbines: int = 16) -> list:
    """Paired traces per seed: the full loop and the loop with relocation slots given to aliens."""
    seeds = [float(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    pairs = []
    for seed in seeds:
        params = replace(ga_params, chaos_seed=seed)
        _, aga_trace = run_aga(params, grid, scenario, spec, n_turbines)
        _, conv_trace = run_conventional_ga(params, grid, scenario, spec, n_turbines)
        pairs.append({"seed": seed, "aga": aga_trace, "conventional": conv_trace})
    return pairs

