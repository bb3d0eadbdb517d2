"""Wake-model building blocks on a two-turbine pair: decay factor, wake
expansion, disc overlap, deficit superposition and the resulting power.
"""

import numpy as np

from windlayout import (
    TurbineSpec,
    circle_overlap_area,
    decay_factor,
    effective_speeds,
    power_values,
    wake_radius,
)
from windlayout.wake import squared_deficit_matrix

spec = TurbineSpec()
k = decay_factor(spec)
print(f"decay factor k = 0.5/ln(h/z0) = {k:.5f}  (h={spec.hub_height} m, z0={spec.surface_roughness} m)")

print("\nwake radius growth:")
for d in (0.0, 200.0, 500.0, 1000.0, 2000.0):
    print(f"  {d:>6.0f} m downstream -> {wake_radius(spec, d):>7.2f} m")

# one turbine 600 m directly upwind of another, wind from the north
positions = [(0.0, 0.0), (0.0, 600.0)]
sq = squared_deficit_matrix(positions, theta=0.0, spec=spec)
(downstream, upstream), = np.argwhere(sq > 0.0)
distance = positions[upstream][1] - positions[downstream][1]
overlap = circle_overlap_area(wake_radius(spec, distance), spec.rotor_radius, 0.0)
print(f"\nwake set: turbine {upstream} shades turbine {downstream}, "
      f"distance {distance:.0f} m, overlap {overlap:.0f} m^2 "
      f"(rotor area {np.pi * spec.rotor_radius**2:.0f} m^2), "
      f"deficit {np.sqrt(sq[downstream, upstream]):.4f}")

print("\npartial overlap as the pair slides sideways (600 m downstream):")
for off in (0.0, 40.0, 80.0, 120.0, 160.0):
    area = circle_overlap_area(wake_radius(spec, 600.0), spec.rotor_radius, off)
    print(f"  offset {off:>5.0f} m -> overlap {area:>8.0f} m^2")

print("\neffective speeds and power at 12 m/s:")
for v in (8.0, 12.0, 16.0):
    u = effective_speeds(positions, 0.0, v, spec)
    powers = power_values(spec, u)
    print(f"  free {v:>4.1f} m/s -> u = {np.round(u, 2)} m/s, power = {np.round(powers)} kW")
