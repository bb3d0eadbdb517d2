"""Independent brute-force checks: Monte-Carlo disc overlap, a naive
re-evaluation of the speed/power chain, and exhaustive search on small
instances; and ``cross_checks``, which runs the fast path against each of
them for the tests and the verify command.

The three checkers deliberately share nothing with the wake module or the
fast evaluator beyond the geometry primitives: plain Python loops, scalar
math, formulas written out inline."""

import itertools
import math

import numpy as np

from .geometry import circle_overlap_area, rotate_frame
from .optimizer import GAParams, Layout, run_aga
from .power import EvaluationResult, FarmEvaluator
from .scenario import build_grid, uniform_directions


def mc_overlap(wake_radius: float, rotor_radius: float, offset: float, samples: int, seed: int = 0):
    """Monte-Carlo estimate of the wake/rotor disc intersection area.

    Rejection-samples the rotor disc uniformly and counts hits inside the
    wake disc; returns (area estimate, binomial standard error) in m**2.
    """
    if samples < 10**4:
        raise ValueError("use at least 1e4 samples")
    rng = np.random.default_rng(seed)
    radii = rotor_radius * np.sqrt(rng.random(samples))
    angles = 2.0 * np.pi * rng.random(samples)
    px = offset + radii * np.cos(angles)  # wake disc centred at the origin
    py = radii * np.sin(angles)
    frac = float(np.mean(px * px + py * py <= wake_radius * wake_radius))
    rotor_area = math.pi * rotor_radius**2
    stderr = rotor_area * math.sqrt(frac * (1.0 - frac) / samples)
    return rotor_area * frac, stderr


def _power_kw(spec, v: float) -> float:
    # piecewise curve written out again on purpose
    if v < spec.cut_in or v >= spec.cut_out:
        return 0.0
    if v >= spec.rated_speed:
        return spec.rated_power
    p = 0.0
    for c in spec.power_poly:
        p = p * v + c
    return min(max(p, 0.0), spec.rated_power)


def straight_line_eval(positions, scenario, spec) -> EvaluationResult:
    """Literal re-evaluation of the whole chain, one pair at a time."""
    pts = [(float(p[0]), float(p[1])) for p in np.asarray(positions, dtype=float)]
    n = len(pts)
    k = 0.5 / math.log(spec.hub_height / spec.surface_roughness)
    R = spec.rotor_radius
    rotor_area = math.pi * R * R
    root = math.sqrt(1.0 - spec.thrust_coefficient)
    numer = {"standard": 1.0 - root, "paper_literal": 1.0 + root}[spec.deficit_numerator]

    # per direction, each turbine's combined deficit; it does not depend on
    # the wind speed, so every speed bin of the direction reuses it
    combined = {}
    speed_exp = [0.0] * n
    power_exp = [0.0] * n
    for theta, v, w in scenario.bins:
        if theta not in combined:
            rotated = [rotate_frame(p, theta) for p in pts]
            combined[theta] = []
            for i in range(n):
                sq_sum = 0.0
                for j in range(n):
                    if i == j:
                        continue
                    d = rotated[j].y - rotated[i].y
                    if d <= 1e-6:  # strictly-downwind rule, same guard band
                        continue
                    area = circle_overlap_area(R + k * d, R, abs(rotated[i].x - rotated[j].x))
                    deficit = (numer / (1.0 + k * d / R) ** 2) * (area / rotor_area)
                    sq_sum += deficit * deficit
                combined[theta].append(min(math.sqrt(sq_sum), 1.0))
        for i in range(n):
            u = v * (1.0 - combined[theta][i])
            speed_exp[i] += w * u
            power_exp[i] += w * _power_kw(spec, u)

    total = sum(power_exp)
    unit = sum(w * _power_kw(spec, v) for _, v, w in scenario.bins)
    if unit <= 0.0:
        raise ValueError("denominator degenerate: no bin yields wake-free power")
    return EvaluationResult(
        np.array(speed_exp), np.array(power_exp), total, total / (n * unit)
    )


def exhaustive_best(grid, n: int, scenario, spec, cap: int = 10**6):
    """Globally best layout by enumerating every n-subset of the grid.

    Ties resolve to the lexicographically first index tuple. Instances whose
    subset count exceeds ``cap`` are rejected.
    """
    m = grid.count
    if math.comb(m, n) > cap:
        raise ValueError(f"C({m}, {n}) exceeds the enumeration cap {cap}")
    best_combo, best_eta = None, -1.0
    for combo in itertools.combinations(range(m), n):
        eta = straight_line_eval(grid.points[list(combo)], scenario, spec).efficiency
        if eta > best_eta:
            best_combo, best_eta = combo, eta
    return Layout(best_combo, m), best_eta


def cross_checks(grid, scenario, spec, n_turbines: int, chaos_seed: float) -> list:
    """Run the fast path against each checker above: the closed-form overlap,
    the evaluator on random layouts of ``grid`` and the search, from
    ``chaos_seed``, on two small grids. One generator seeded with 0 draws the
    inputs of the first two in turn. Returns (name, passed, detail) triples."""
    checks = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(30):
        r = float(rng.uniform(20, 200))
        R = float(rng.uniform(20, 200))
        off = float(rng.uniform(0, r + R + 50))
        est, se = mc_overlap(r, R, off, 10**5, seed=int(rng.integers(2**31)))
        dev = abs(circle_overlap_area(r, R, off) - est) / max(se, 1e-9)
        worst = max(worst, dev)
    checks.append(("overlap-vs-monte-carlo", worst <= 4.0, f"max deviation {worst:.2f} se"))

    evaluator = FarmEvaluator(grid.points, scenario, spec)
    worst = 0.0
    for _ in range(10):
        idx = np.sort(rng.choice(grid.count, size=n_turbines, replace=False))
        a = evaluator.evaluate(idx)
        b = straight_line_eval(grid.points[idx], scenario, spec)
        worst = max(
            worst,
            abs(a.total_power - b.total_power) / b.total_power,
            abs(a.efficiency - b.efficiency) / b.efficiency,
        )
    checks.append(("evaluator-vs-straight-line", worst <= 1e-9, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for cells, edge in ((4, 120.0), (5, 110.0)):
        small = build_grid(cells * edge, cells)
        rose = uniform_directions(10.0, 12)
        _, opt_eta = exhaustive_best(small, 3, rose, spec)
        params = GAParams(population=60, elites=6, relocations=18, aliens=6,
                          max_generations=300, target_efficiency=opt_eta, chaos_seed=chaos_seed)
        _, trace = run_aga(params, small, rose, spec, 3)
        worst = max(worst, opt_eta - trace[-1].best_eta)
    checks.append(("optimizer-vs-exhaustive", worst <= 1e-12, f"max eta shortfall {worst:.2e}"))
    return checks
