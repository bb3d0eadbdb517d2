import math
from dataclasses import replace

import numpy as np
import pytest

from windlayout.oracle import exhaustive_best, mc_overlap, straight_line_eval
from windlayout.power import FarmEvaluator, power_values
from windlayout.scenario import WindScenario, build_grid, single_bin, uniform_directions


class TestMcOverlap:
    def test_disjoint(self):
        est, se = mc_overlap(100.0, 50.0, 200.0, 10**4)
        assert est == 0.0 and se == 0.0

    def test_containment(self):
        est, se = mc_overlap(100.0, 50.0, 0.0, 10**5)
        assert est == pytest.approx(math.pi * 50.0**2)
        assert se == 0.0

    def test_lens_cross_check(self):
        from windlayout.geometry import circle_overlap_area

        est, se = mc_overlap(100.0, 50.0, 120.0, 10**6, seed=3)
        assert abs(est - circle_overlap_area(100.0, 50.0, 120.0)) <= 3 * se

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            mc_overlap(100.0, 50.0, 120.0, 100)

    def test_seed_reproducible(self):
        assert mc_overlap(80.0, 60.0, 90.0, 10**4, seed=5) == mc_overlap(
            80.0, 60.0, 90.0, 10**4, seed=5
        )


class TestStraightLineEval:
    def test_single_turbine(self, spec):
        result = straight_line_eval([(0.0, 0.0)], single_bin(0.0, 12.0), spec)
        assert result.total_power == pytest.approx(power_values(spec, 12.0), rel=1e-12)
        assert result.efficiency == pytest.approx(1.0, rel=1e-12)

    def test_differential_against_fast_evaluator(self, spec, default_grid, rng):
        scenario = uniform_directions(12.0, 12)
        evaluator = FarmEvaluator(default_grid.points, scenario, spec)
        for _ in range(50):
            idx = np.sort(rng.choice(default_grid.count, size=16, replace=False))
            fast = evaluator.evaluate(idx)
            slow = straight_line_eval(default_grid.points[idx], scenario, spec)
            assert fast.total_power == pytest.approx(slow.total_power, rel=1e-9)
            assert fast.efficiency == pytest.approx(slow.efficiency, rel=1e-9)
            assert np.allclose(fast.per_turbine_power, slow.per_turbine_power, rtol=1e-9)
            assert np.allclose(fast.per_turbine_speed, slow.per_turbine_speed, rtol=1e-9)

    def test_paper_literal_numerator_agrees_too(self, spec, rng):
        pos = rng.uniform(0, 1500, size=(6, 2))
        scenario = uniform_directions(11.0, 6)
        spec = replace(spec, deficit_numerator="paper_literal")
        fast = FarmEvaluator(pos, scenario, spec).evaluate()
        slow = straight_line_eval(pos, scenario, spec)
        assert fast.total_power == pytest.approx(slow.total_power, rel=1e-9)


    def test_directions_repeated_across_bins(self, spec):
        # each bin scores as it does alone, accumulated in bin order
        pos = build_grid(900.0, 3).points[[0, 1, 5, 6, 10, 15]]
        bins = ((0.0, 10.0, 0.1), (90.0, 10.0, 0.2), (0.0, 12.0, 0.3), (90.0, 12.0, 0.4))
        got = straight_line_eval(pos, WindScenario(bins), spec)
        speed, power = np.zeros(len(pos)), np.zeros(len(pos))
        for theta, v, w in bins:
            alone = straight_line_eval(pos, single_bin(theta, v), spec)
            speed += w * alone.per_turbine_speed
            power += w * alone.per_turbine_power
        assert np.all(got.per_turbine_speed == speed)
        assert np.all(got.per_turbine_power == power)
        assert got.per_turbine_speed.min() < 10.0  # some turbine is waked


class TestExhaustiveBest:
    def test_full_grid_unique_layout(self, spec):
        grid = build_grid(400.0, 1)
        layout, eta = exhaustive_best(grid, 4, single_bin(0.0, 12.0), spec)
        assert layout.occupied == (0, 1, 2, 3)

    def test_crosswind_pairs_reach_unity(self, spec):
        grid = build_grid(800.0, 2)  # 9 points
        layout, eta = exhaustive_best(grid, 2, single_bin(0.0, 12.0), spec)
        assert eta == pytest.approx(1.0, rel=1e-12)

    def test_ties_resolve_lexicographically(self, spec):
        grid = build_grid(800.0, 2)
        layout, _ = exhaustive_best(grid, 2, single_bin(0.0, 12.0), spec)
        # many wake-free pairs exist; the first in combination order wins
        assert layout.occupied == (0, 1)

    def test_rejects_oversized_instance(self, spec):
        grid = build_grid(4000.0, 20)
        with pytest.raises(ValueError):
            exhaustive_best(grid, 16, single_bin(0.0, 12.0), spec)
