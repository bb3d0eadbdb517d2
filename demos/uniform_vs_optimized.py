"""Baseline comparison: all 16 turbines lined up in a straight row vs the
optimized placement, under the 12-direction wind rose.

A single line is perfect for one wind direction and poor for the direction
along the line; the optimizer spreads the turbines in two dimensions.
"""

from windlayout import (
    FarmEvaluator,
    GAParams,
    TurbineSpec,
    build_grid,
    run_aga,
    uniform_directions,
    uniform_layout,
)

spec = TurbineSpec()
grid = build_grid(4000.0, 20)
scenario = uniform_directions(v=12.0, sectors=12)
params = GAParams(max_generations=150, chaos_seed=0.1357)
n = 16

_, trace = run_aga(params, grid, scenario, spec, n_turbines=n)
optimized = trace[-1]  # the final best layout, as the search scored it
evaluator = FarmEvaluator(grid.points, scenario, spec)
line = evaluator.evaluate(uniform_layout(grid, n, "line").occupied)
lattice = evaluator.evaluate(uniform_layout(grid, n, "square_lattice").occupied)

print("          layout        eta      expected power")
print(f"uniform   line          {line.efficiency:.4f}   {line.total_power / 1000:.2f} MW")
print(f"optimized ga            {optimized.best_eta:.4f}   {optimized.best_power / 1000:.2f} MW")
gain = optimized.best_power / line.total_power - 1.0
print(f"\noptimized layout yields {gain:.1%} more expected power")

# the same optimized layout against a 4x4 sub-lattice baseline
print(f"4x4 lattice baseline eta: {lattice.efficiency:.4f} "
      f"({lattice.total_power / 1000:.2f} MW)")
