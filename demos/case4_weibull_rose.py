"""Case 4: joint wind distribution with Weibull speeds (shape 2.1, a typical
offshore fit) across twelve uniform direction sectors.

The speed mass above rated wind softens the wake penalty relative to case 3,
while sub-rated bins still reward careful spacing.
"""

import math

from windlayout import GAParams, TurbineSpec, build_grid, run_aga, weibull_rose

spec = TurbineSpec()
grid = build_grid(4000.0, 20)
scenario = weibull_rose(shape=2.1, scale=10.5)

# speed marginal of the distribution, collapsed over directions
marginal = {}
for _, v, w in scenario.bins:
    marginal[v] = marginal.get(v, 0.0) + w
print("speed bin (m/s)  probability")
for v in sorted(marginal):
    bar = "#" * int(round(300 * marginal[v]))
    print(f"{v:>14.1f}  {marginal[v]:.4f} {bar}")
mean_speed = sum(v * w for v, w in marginal.items())
print(f"mean speed {mean_speed:.2f} m/s "
      f"(analytic {10.5 * math.gamma(1 + 1 / 2.1):.2f} m/s)\n")

params = GAParams(max_generations=200, chaos_seed=0.1357)
_, trace = run_aga(params, grid, scenario, spec, n_turbines=16)
print(f"best efficiency: {trace[-1].best_eta:.4%}")
print(f"expected power:  {trace[-1].best_power / 1000.0:.2f} MW")
