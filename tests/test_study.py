import math

import numpy as np
import pytest

import windlayout.study as study
from windlayout.cli import sweep_rows
from windlayout.optimizer import GAParams, Layout, run_aga
from windlayout.scenario import build_grid, single_bin, uniform_directions
from windlayout.study import (
    PolyFit,
    ShrinkSweepPoint,
    budget_edge,
    compare_uniform_vs_aga,
    convergence_comparison,
    fit_poly3,
    power_drop_at_budget,
    repeat_seeds,
    shrink_sweep,
)


def make_sweep(edges, fractions):
    base = edges[0]
    return [
        ShrinkSweepPoint(
            edge=e,
            area_fraction=(e / base) ** 2,
            mean_power=40000.0 * f,
            power_fraction=f,
            n_runs=3,
            stderr=10.0,
        )
        for e, f in zip(edges, fractions)
    ]


class TestFitPoly3:
    def test_recovers_exact_cubic(self):
        coeffs = (2.0, -1.0, 0.5, 3.0)
        xs = np.linspace(0.0, 10.0, 12)
        pts = [(x, np.polyval(coeffs, x)) for x in xs]
        fit = fit_poly3(pts)
        assert fit.coefficients == pytest.approx(coeffs, rel=1e-9, abs=1e-9)
        assert fit.residual_norm < 1e-8

    def test_four_points_interpolate(self):
        pts = [(0.0, 1.0), (1.0, -2.0), (3.0, 4.0), (7.0, 0.5)]
        fit = fit_poly3(pts)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-9)

    def test_noisy_fit_matches_normal_equations(self, rng):
        xs = np.linspace(100.0, 200.0, 15)
        ys = np.polyval([1e-5, -2e-3, 0.1, 0.4], xs) + rng.normal(0, 0.01, size=15)
        fit = fit_poly3(list(zip(xs, ys)))
        # independent least squares via the normal equations
        design = np.vander(xs, 4)
        beta = np.linalg.solve(design.T @ design, design.T @ ys)
        assert fit.coefficients == pytest.approx(tuple(beta), rel=1e-6, abs=1e-9)

    def test_residual_invariant_under_reordering(self, rng):
        xs = np.linspace(0, 5, 9)
        ys = rng.normal(size=9)
        pts = list(zip(xs, ys))
        shuffled = [pts[i] for i in rng.permutation(9)]
        assert fit_poly3(pts).residual_norm == pytest.approx(
            fit_poly3(shuffled).residual_norm, rel=1e-9
        )

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            fit_poly3([(1.0, 2.0)] * 6)

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            fit_poly3([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])


class TestPowerDropAtBudget:
    def test_generous_budget_returns_smallest_edge(self):
        sweep = make_sweep([200.0, 170.0, 140.0, 110.0], [1.0, 0.99, 0.96, 0.9])
        edge, saving = power_drop_at_budget(sweep, 0.5)
        assert edge == 110.0
        assert saving == pytest.approx(1 - (110.0 / 200.0) ** 2)

    def test_zero_budget_returns_baseline(self):
        sweep = make_sweep([200.0, 170.0, 140.0, 110.0], [1.0, 0.95, 0.9, 0.8])
        edge, saving = power_drop_at_budget(sweep, 0.0)
        assert edge == 200.0
        assert saving == 0.0

    def test_area_saving_formula(self):
        sweep = make_sweep([200.0, 180.0, 160.0, 145.0], [1.0, 0.999, 0.997, 0.996])
        edge, saving = power_drop_at_budget(sweep, 0.05)
        assert edge == 145.0
        assert saving == pytest.approx(1 - 0.525625)

    def test_rejects_unattainable_budget(self):
        sweep = make_sweep([200.0, 170.0, 140.0, 110.0], [1.0, 0.8, 0.6, 0.4])
        with pytest.raises(ValueError):
            # drops 20%+ everywhere below the baseline; demand under 1e-6
            power_drop_at_budget(sweep[1:], 1e-6)

    def test_rejects_bad_budget(self):
        sweep = make_sweep([200.0, 170.0, 140.0, 110.0], [1.0, 0.99, 0.98, 0.97])
        with pytest.raises(ValueError):
            power_drop_at_budget(sweep, 1.0)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="sweep is empty"):
            budget_edge([], PolyFit((0.0, 0.0, 0.0, 1.0), 0.0), 0.05)

    def test_nan_fit_leaves_no_feasible_point(self):
        # a NaN predicted drop compares false against every budget
        sweep = make_sweep([200.0, 170.0, 140.0, 110.0], [1.0, 0.99, 0.98, 0.97])
        with pytest.raises(ValueError, match="no sweep point stays within"):
            budget_edge(sweep, PolyFit((math.nan,) * 4, 0.0), 0.5)


@pytest.fixture(scope="module")
def small_sweep(spec):
    params = GAParams(population=24, elites=3, relocations=9, aliens=3,
                      max_generations=25, chaos_seed=0.3141)
    edges = [240.0, 200.0, 160.0, 120.0]
    return shrink_sweep(edges, uniform_directions(11.0, 4), spec, params,
                        repeats=2, cells=6, n_turbines=5)


class TestShrinkSweep:
    def test_baseline_normalisation(self, small_sweep):
        assert small_sweep[0].power_fraction == 1.0
        assert small_sweep[0].area_fraction == 1.0

    def test_area_fraction_is_pure_arithmetic(self, small_sweep):
        for point in small_sweep:
            assert point.area_fraction == (point.edge / 240.0) ** 2

    def test_power_fraction_weakly_decreasing(self, small_sweep):
        # tolerate run-to-run noise of twice the standard error
        for a, b in zip(small_sweep, small_sweep[1:]):
            slack = 2.0 * (a.stderr + b.stderr) / max(a.mean_power, 1e-9)
            assert b.power_fraction <= a.power_fraction + slack

    def test_rows_schema(self, small_sweep):
        rows = sweep_rows(small_sweep)
        assert len(rows) == 4
        assert all(len(r.split(",")) == 5 for r in rows)

    def test_strict_spacing_check(self, spec):
        params = GAParams(population=10, elites=2, relocations=3, aliens=2,
                          max_generations=2)
        with pytest.raises(ValueError, match="spacing infeasible"):
            shrink_sweep([200.0, 100.0], single_bin(0.0, 12.0), spec, params,
                         repeats=1, cells=4, n_turbines=3, spacing_check="strict")

    def test_rejects_no_repeats(self, spec):
        params = GAParams(population=10, elites=2, relocations=3, aliens=2)
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            shrink_sweep([200.0, 100.0], single_bin(0.0, 12.0), spec, params,
                         repeats=0, cells=4, n_turbines=3)

    def test_rejects_unknown_spacing_check(self, spec):
        params = GAParams(population=10, elites=2, relocations=3, aliens=2)
        with pytest.raises(ValueError, match="spacing_check must be"):
            shrink_sweep([200.0, 100.0], single_bin(0.0, 12.0), spec, params,
                         repeats=1, cells=4, n_turbines=3, spacing_check="loose")

    def test_rejects_non_descending(self, spec):
        params = GAParams(population=10, elites=2, relocations=3, aliens=2)
        with pytest.raises(ValueError):
            shrink_sweep([100.0, 200.0], single_bin(0.0, 12.0), spec, params,
                         repeats=1, cells=4, n_turbines=3)

    @pytest.mark.parametrize("edges", [[400.0, math.nan, 300.0, 200.0], [math.inf, 300.0],
                                       [300.0, -100.0]])
    def test_rejects_non_finite_or_negative_edges(self, spec, edges):
        # a NaN edge used to pass the descending check and report a
        # power fraction of 1.0 on a grid of NaN points
        params = GAParams(population=10, elites=2, relocations=3, aliens=2)
        with pytest.raises(ValueError, match="finite, positive"):
            shrink_sweep(edges, single_bin(0.0, 12.0), spec, params,
                         repeats=1, cells=4, n_turbines=3)


class TestComparisons:
    def test_wake_free_instance_ties(self, spec):
        grid = build_grid(1000.0, 1)  # 4 corners
        params = GAParams(population=6, elites=1, relocations=2, aliens=1,
                          max_generations=3, target_efficiency=1.0)
        best, _ = run_aga(params, grid, single_bin(0.0, 12.0), spec, 1)
        record = compare_uniform_vs_aga(grid, single_bin(0.0, 12.0), spec, best)
        assert record.uniform_eta == pytest.approx(record.aga_eta, rel=1e-12)

    def test_aga_beats_uniform_line_on_multidirection(self, spec, default_grid):
        params = GAParams(max_generations=40, chaos_seed=0.6203)
        best, _ = run_aga(params, default_grid, uniform_directions(12.0, 12), spec, 16)
        record = compare_uniform_vs_aga(default_grid, uniform_directions(12.0, 12), spec, best)
        assert record.aga_eta >= record.uniform_eta
        assert record.aga_power >= record.uniform_power

    def test_compare_runs_no_search(self, spec, monkeypatch):
        # the optimized layout comes in; only the two evaluations happen here
        def no_search(*args, **kwargs):
            raise AssertionError("compare_uniform_vs_aga ran a search")

        monkeypatch.setattr(study, "run_aga", no_search)
        monkeypatch.setattr(study, "run_conventional_ga", no_search)
        grid = build_grid(2000.0, 5)
        best = Layout((0, 5, 30, 35), grid.count)
        record = compare_uniform_vs_aga(grid, uniform_directions(12.0, 4), spec, best,
                                        pattern="square_lattice")
        assert record.aga_occupied == best.occupied
        assert len(record.uniform_occupied) == best.n
        with pytest.raises(ValueError, match="36 cells, the grid has 25"):
            compare_uniform_vs_aga(build_grid(2000.0, 4), uniform_directions(12.0, 4), spec, best)

    def test_convergence_comparison_shape(self, spec):
        grid = build_grid(2000.0, 5)
        params = GAParams(population=16, elites=2, relocations=6, aliens=2,
                          max_generations=8)
        pairs = convergence_comparison(grid, single_bin(0.0, 12.0), spec, params,
                                       seeds=[0.1, 0.2], n_turbines=4)
        assert len(pairs) == 2
        for pair in pairs:
            for key in ("aga", "conventional"):
                best = [t.best_eta for t in pair[key]]
                assert all(a <= b + 1e-15 for a, b in zip(best, best[1:]))

    def test_convergence_comparison_needs_a_seed(self, spec):
        params = GAParams(population=16, elites=2, relocations=6, aliens=2)
        with pytest.raises(ValueError, match="at least one seed"):
            convergence_comparison(build_grid(2000.0, 5), single_bin(0.0, 12.0), spec, params,
                                   seeds=[], n_turbines=4)

    def test_repeat_seeds_deterministic(self):
        assert repeat_seeds(0.123, 4) == repeat_seeds(0.123, 4)
        assert all(0.0 < s < 1.0 for s in repeat_seeds(0.123, 10))

    @pytest.mark.parametrize("base", [0.0, 1.0, -0.1])
    def test_repeat_seeds_rejects_base_outside_open_unit_interval(self, base):
        with pytest.raises(ValueError, match="base seed must lie in"):
            repeat_seeds(base, 2)

    def test_repeat_seeds_step_off_forbidden_seeds(self):
        assert repeat_seeds(0.25, 1) == [0.250001]
