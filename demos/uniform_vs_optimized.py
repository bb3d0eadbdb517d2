"""Baseline comparison: all 16 turbines lined up in a straight row vs the
optimized placement, under the 12-direction wind rose.

A single line is perfect for one wind direction and poor for the direction
along the line; the optimizer spreads the turbines in two dimensions.
"""

from windlayout import GAParams, TurbineSpec, build_grid, run_aga, uniform_directions
from windlayout.study import compare_uniform_vs_aga

spec = TurbineSpec()
grid = build_grid(4000.0, 20)
scenario = uniform_directions(v=12.0, sectors=12)
params = GAParams(max_generations=150, chaos_seed=0.1357)

best, _ = run_aga(params, grid, scenario, spec, n_turbines=16)
record = compare_uniform_vs_aga(grid, scenario, spec, best, pattern="line")

print("          layout        eta      expected power")
print(f"uniform   line          {record.uniform_eta:.4f}   {record.uniform_power / 1000:.2f} MW")
print(f"optimized ga            {record.aga_eta:.4f}   {record.aga_power / 1000:.2f} MW")
gain = record.aga_power / record.uniform_power - 1.0
print(f"\noptimized layout yields {gain:.1%} more expected power")

# the same optimized layout against a 4x4 sub-lattice baseline
lattice = compare_uniform_vs_aga(grid, scenario, spec, best, pattern="square_lattice")
print(f"4x4 lattice baseline eta: {lattice.uniform_eta:.4f} "
      f"({lattice.uniform_power / 1000:.2f} MW)")
