import math

import pytest

from windlayout.scenario import (
    WindScenario,
    build_grid,
    case_scenario,
    single_bin,
    uniform_directions,
    uniform_layout,
    weibull_cdf,
    weibull_rose,
)


class TestBuildGrid:
    def test_default_dimensions(self):
        grid = build_grid(4000.0, 20)
        assert grid.count == 441
        assert grid.edge == 200.0
        assert grid.points.shape == (441, 2)
        # row-major indexing from the origin
        assert grid.points[0].tolist() == [0.0, 0.0]
        assert grid.points[20].tolist() == [4000.0, 0.0]
        assert grid.points[440].tolist() == [4000.0, 4000.0]

    def test_single_cell(self):
        grid = build_grid(100.0, 1)
        assert grid.count == 4
        assert sorted(map(tuple, grid.points.tolist())) == [
            (0.0, 0.0), (0.0, 100.0), (100.0, 0.0), (100.0, 100.0),
        ]

    def test_count_formula(self):
        for cells in (1, 3, 7, 20):
            assert build_grid(1000.0, cells).count == (cells + 1) ** 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 20)
        with pytest.raises(ValueError):
            build_grid(100.0, 0)
        for side in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                build_grid(side, 20)


class TestScenarios:
    def test_single_bin(self):
        sc = single_bin(0.0, 12.0)
        assert sc.bins == ((0.0, 12.0, 1.0),)

    def test_uniform_directions(self):
        sc = uniform_directions(12.0, 12)
        assert len(sc.bins) == 12
        assert {t for t, _, _ in sc.bins} == {30.0 * k for k in range(12)}
        assert all(w == pytest.approx(1 / 12) for _, _, w in sc.bins)

    def test_one_sector_reduces_to_single_bin(self):
        assert uniform_directions(9.0, 1).bins == single_bin(0.0, 9.0).bins

    def test_uniform_rose_power_is_directional_average(self, spec, rng):
        from windlayout.power import FarmEvaluator

        pos = rng.uniform(0, 2500, size=(6, 2))
        rose = uniform_directions(12.0, 12)
        averaged = sum(
            FarmEvaluator(pos, single_bin(theta, 12.0), spec).evaluate().total_power
            for theta, _, _ in rose.bins
        ) / 12.0
        assert FarmEvaluator(pos, rose, spec).evaluate().total_power == pytest.approx(
            averaged, rel=1e-12
        )

    def test_weights_normalised(self, rng):
        for _ in range(200):
            kind = rng.integers(0, 3)
            if kind == 0:
                sc = single_bin(float(rng.uniform(0, 360)), float(rng.uniform(0, 30)))
            elif kind == 1:
                sc = uniform_directions(float(rng.uniform(1, 25)), int(rng.integers(1, 36)))
            else:
                sc = weibull_rose(float(rng.uniform(1.2, 3.0)), float(rng.uniform(6, 14)))
            assert math.fsum(w for _, _, w in sc.bins) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WindScenario(((0.0, 12.0, -0.5), (0.0, 10.0, 1.5)))

    @pytest.mark.parametrize("bad", [
        (math.nan, 12.0, 1.0), (math.inf, 12.0, 1.0), (0.0, math.nan, 1.0),
        (0.0, math.inf, 1.0), (0.0, 12.0, math.nan), (0.0, 12.0, math.inf),
    ])
    def test_rejects_non_finite_bin(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WindScenario((bad,))

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError, match="non-negative"):
            WindScenario(((0.0, -1.0, 1.0),))

    def test_rejects_empty_bins(self):
        with pytest.raises(ValueError, match="at least one bin"):
            WindScenario(())

    def test_rejects_no_sectors(self):
        with pytest.raises(ValueError, match="sectors must be >= 1"):
            uniform_directions(12.0, 0)


class TestWeibullRose:
    def test_cdf_identity_at_scale(self):
        for shape in (1.5, 2.1, 3.0):
            assert weibull_cdf(10.5, shape, 10.5) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_single_unbounded_bin_telescopes(self):
        weights = [0.1, 0.2, 0.3, 0.15, 0.05, 0.05, 0.05, 0.02, 0.03, 0.02, 0.02, 0.01]
        sc = weibull_rose(2.1, 10.5, [0.0, math.inf], weights)
        assert [w for _, _, w in sc.bins] == pytest.approx(weights, rel=1e-12)

    def test_sub_bin_split_preserves_direction_mass(self):
        coarse = weibull_rose(2.1, 10.5, [0.0, 10.0, 30.0])
        fine = weibull_rose(2.1, 10.5, [0.0, 5.0, 10.0, 20.0, 30.0])

        def direction_mass(sc):
            mass = {}
            for t, _, w in sc.bins:
                mass[t] = mass.get(t, 0.0) + w
            return mass

        for theta, m in direction_mass(coarse).items():
            assert direction_mass(fine)[theta] == pytest.approx(m, rel=1e-12)

    def test_discretised_mean_near_analytic(self):
        sc = weibull_rose(2.1, 10.5)  # 1 m/s bins on [0, 30]
        mean = sum(v * w for _, v, w in sc.bins)
        analytic = 10.5 * math.gamma(1.0 + 1.0 / 2.1)
        assert abs(mean - analytic) / analytic < 0.02

    def test_rejects_empty_mass(self):
        with pytest.raises(ValueError):
            weibull_rose(2.1, 10.5, [100.0, 101.0, 102.0, 103.0])  # hmm: tiny but nonzero?

    @pytest.mark.parametrize("shape, scale", [(0.0, 10.5), (2.1, -1.0)])
    def test_rejects_non_positive_shape_or_scale(self, shape, scale):
        with pytest.raises(ValueError, match="shape and scale must be positive"):
            weibull_rose(shape, scale)

    @pytest.mark.parametrize("weights", [(0.5, 0.6), (1.5, -0.5)])
    def test_rejects_bad_direction_weights(self, weights):
        with pytest.raises(ValueError, match="direction weights"):
            weibull_rose(direction_weights=weights)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            weibull_rose(2.1, 10.5, [5.0])
        with pytest.raises(ValueError):
            weibull_rose(2.1, 10.5, [5.0, 4.0])


class TestCasePresets:
    def test_case1(self):
        assert case_scenario("case1").bins == ((0.0, 12.0, 1.0),)

    def test_case2(self):
        assert case_scenario("case2").bins == ((0.0, 20.0, 1.0),)

    def test_case3(self):
        sc = case_scenario("case3")
        assert len(sc.bins) == 12
        assert all(v == 12.0 for _, v, _ in sc.bins)

    def test_case4(self):
        sc = case_scenario("case4")
        assert len({theta for theta, _, _ in sc.bins}) == 12
        assert len(sc.bins) == 12 * 30

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            case_scenario("case9")


class TestUniformLayout:
    def test_line_is_collinear(self):
        grid = build_grid(4000.0, 20)
        layout = uniform_layout(grid, 16)
        ys = {grid.points[i][1] for i in layout.occupied}
        assert layout.n == 16
        assert len(ys) == 1  # one row

    def test_single_turbine_centered(self):
        grid = build_grid(4000.0, 20)
        layout = uniform_layout(grid, 1)
        assert grid.points[layout.occupied[0]].tolist() == [2000.0, 2000.0]

    def test_square_lattice_16(self):
        grid = build_grid(4000.0, 20)
        layout = uniform_layout(grid, 16, pattern="square_lattice")
        xs = sorted({grid.points[i][0] for i in layout.occupied})
        ys = sorted({grid.points[i][1] for i in layout.occupied})
        assert layout.n == 16
        assert len(xs) == 4 and len(ys) == 4

    def test_cardinality(self, rng):
        grid = build_grid(4000.0, 20)
        for n in range(1, 22):
            assert uniform_layout(grid, n).n == n

    def test_rejects_overfull_line(self):
        grid = build_grid(4000.0, 20)
        with pytest.raises(ValueError):
            uniform_layout(grid, 22)

    @pytest.mark.parametrize("n", [0, 5])
    def test_square_lattice_rejects_n_outside_the_grid(self, n):
        with pytest.raises(ValueError, match="1 <= n <= grid.count"):
            uniform_layout(build_grid(100.0, 1), n, pattern="square_lattice")

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            uniform_layout(build_grid(100.0, 1), 2, pattern="spiral")
