"""Case 2: the same farm under a steady 20 m/s wind.

Far more layouts are optimal here: a turbine sitting in a wake still produces
rated power as long as its effective speed stays on the power-curve plateau,
so 100% efficiency coexists with visible wake interactions.
"""

from windlayout import (
    FarmEvaluator,
    GAParams,
    TurbineSpec,
    build_grid,
    run_aga,
    single_bin,
)
from windlayout.wake import squared_deficit_matrix

spec = TurbineSpec()
grid = build_grid(4000.0, 20)
scenario = single_bin(theta=0.0, v=20.0)

params = GAParams(target_efficiency=1.0, max_generations=10, chaos_seed=0.1357)
best, trace = run_aga(params, grid, scenario, spec, n_turbines=16)

result = FarmEvaluator(grid.points, scenario, spec).evaluate(best.occupied)
wakes = int((squared_deficit_matrix(grid.points[list(best.occupied)], 0.0, spec) > 0.0).sum())

print(f"reached eta = {result.efficiency:.4%} at generation {trace[-1].generation}")
print(f"wake interactions present in the final layout: {wakes}")
print("\nturbine  effective speed  power")
for i, (u, p) in enumerate(zip(result.per_turbine_speed, result.per_turbine_power)):
    tag = "waked" if u < 20.0 else "free"
    print(f"{i:>7}  {u:>10.2f} m/s   {p:>6.0f} kW  ({tag})")
