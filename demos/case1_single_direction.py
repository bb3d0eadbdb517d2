"""Case 1: 16 turbines, 441 candidate positions, steady 12 m/s wind from a
single direction.

The adapted search reaches 100% farm efficiency within a handful of
generations: at 12 m/s every wake loss costs power, so the optimizer spreads
the turbines into mutually wake-free cells.
"""

from windlayout import GAParams, build_grid, run_aga, single_bin, TurbineSpec

spec = TurbineSpec()
grid = build_grid(4000.0, 20)
scenario = single_bin(theta=0.0, v=12.0)

params = GAParams(target_efficiency=1.0, max_generations=50, chaos_seed=0.1357)
best, trace = run_aga(params, grid, scenario, spec, n_turbines=16)

print("generation  best eta   mean eta")
for t in trace:
    print(f"{t.generation:>10}  {t.best_eta:.6f}  {t.mean_eta:.6f}")

print(f"\nfinal efficiency: {trace[-1].best_eta:.4%}")
print(f"total power:      {trace[-1].best_power / 1000.0:.2f} MW")

# occupancy map, one character per candidate point (row 0 = south edge)
side = grid.cells + 1
occupied = set(best.occupied)
print("\nlayout (wind blows along the columns):")
for row in reversed(range(side)):
    print("".join("o" if row * side + col in occupied else "." for col in range(side)))
