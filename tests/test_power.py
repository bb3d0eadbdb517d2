import math
import tracemalloc

import numpy as np
import pytest

from windlayout import power as power_module
from windlayout.oracle import straight_line_eval
from windlayout.power import (
    EvaluationResult,
    FarmEvaluator,
    PowerCurve,
    cost_curve,
    curve_of,
    efficiency,
    expected_farm_power,
    power_at,
    power_values,
)
from windlayout.scenario import (
    WindScenario,
    build_grid,
    case_scenario,
    single_bin,
    uniform_directions,
    weibull_rose,
)
from windlayout.wake import effective_speeds, squared_deficit_matrix


@pytest.fixture(scope="module")
def curve():
    return PowerCurve()


class TestPowerAt:
    def test_below_cut_in(self, curve):
        assert power_at(curve, 2.0) == 0.0

    def test_rated_plateau(self, curve):
        assert power_at(curve, 20.0) == 5000.0
        assert power_at(curve, 14.0) == 5000.0

    def test_quartic_overshoot_clamped(self, curve):
        # the fit slightly exceeds the plateau just below rated speed
        raw = np.polyval(curve.poly, 14.0)
        assert raw == pytest.approx(5026.88, abs=0.01)
        assert power_at(curve, 13.999999) == 5000.0

    def test_quartic_value(self, curve):
        v = 10.0
        horner = 0.0
        for c in curve.poly:
            horner = horner * v + c
        assert power_at(curve, v) == pytest.approx(horner, rel=1e-14)
        assert power_at(curve, v) == pytest.approx(3195.6943, abs=1e-4)

    def test_cut_out(self, curve):
        assert power_at(curve, 25.0) == 0.0
        assert power_at(curve, 30.0) == 0.0

    def test_no_cut_out_when_infinite(self):
        c = PowerCurve(cut_out=math.inf)
        assert power_at(c, 60.0) == c.p_max

    def test_non_decreasing_below_rated(self, curve):
        grid = np.arange(0.0, 14.0 + 1e-9, 0.01)
        p = power_values(curve, grid)
        assert np.all(np.diff(p) >= -1e-9)
        assert np.all(p >= 0.0)

    def test_rejects_negative_speed(self, curve):
        with pytest.raises(ValueError):
            power_at(curve, -0.1)


class TestCostCurve:
    def test_single_turbine(self):
        assert cost_curve(1) == pytest.approx(2.0 / 3.0 + math.exp(-0.00174) / 3.0, rel=1e-14)
        assert cost_curve(1) == pytest.approx(0.99942, abs=1e-5)

    def test_large_farm_linear_limit(self):
        assert abs(cost_curve(50) / 50.0 - 2.0 / 3.0) / (2.0 / 3.0) < 0.01
        assert abs(cost_curve(100) / 100.0 - 2.0 / 3.0) / (2.0 / 3.0) < 1e-7

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cost_curve(0)


class TestExpectedFarmPower:
    def test_single_turbine_point_mass(self, spec):
        result = expected_farm_power([(0.0, 0.0)], single_bin(0.0, 12.0), spec)
        assert result.total_power == pytest.approx(power_at(curve_of(spec), 12.0), rel=1e-12)
        assert result.efficiency == pytest.approx(1.0, rel=1e-12)

    def test_isolated_turbines_full_efficiency(self, spec):
        # diagonal spacing: even the unbounded linear wake cone never catches
        # a neighbour laterally, for any of the scenario's directions
        pos = [(i * 50000.0, i * 37000.0) for i in range(5)]
        scenario = uniform_directions(11.0, 4)
        result = expected_farm_power(pos, scenario, spec)
        unit = sum(w * power_at(curve_of(spec), v) for _, v, w in scenario.bins)
        assert result.total_power == pytest.approx(5 * unit, rel=1e-12)
        assert result.efficiency == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_weights(self, spec, rng):
        pos = rng.uniform(0, 2000, size=(6, 2))
        a = single_bin(0.0, 9.0)
        b = single_bin(90.0, 13.0)
        mixed = WindScenario(((0.0, 9.0, 0.3), (90.0, 13.0, 0.7)), sector_count=2)
        pa = expected_farm_power(pos, a, spec).total_power
        pb = expected_farm_power(pos, b, spec).total_power
        pm = expected_farm_power(pos, mixed, spec).total_power
        assert pm == pytest.approx(0.3 * pa + 0.7 * pb, rel=1e-12)

    def test_efficiency_denominator_identity(self, spec, rng):
        # eta equals total power over the wake-free total of the same layout
        pos = rng.uniform(0, 2500, size=(8, 2))
        scenario = uniform_directions(12.0, 6)
        result = expected_farm_power(pos, scenario, spec)
        unit = sum(w * power_at(curve_of(spec), v) for _, v, w in scenario.bins)
        assert result.efficiency == pytest.approx(result.total_power / (8 * unit), rel=1e-12)

    def test_rejects_unnormalised_scenario(self):
        with pytest.raises(ValueError):
            WindScenario(((0.0, 12.0, 0.7),), sector_count=1)


class TestEfficiency:
    def test_wake_free_layout(self, spec):
        result = expected_farm_power([(0.0, 0.0), (5000.0, 0.0)], single_bin(0.0, 12.0), spec)
        assert efficiency(result, 2, single_bin(0.0, 12.0), curve_of(spec)) == pytest.approx(1.0)

    def test_high_wind_plateau_gives_unity(self, spec):
        # waked pair, but the downstream speed stays on the rated plateau
        pos = [(0.0, 0.0), (0.0, 1500.0)]
        scenario = single_bin(0.0, 20.0)
        result = expected_farm_power(pos, scenario, spec)
        assert result.per_turbine_speed.min() >= 14.0
        assert efficiency(result, 2, scenario, curve_of(spec)) == 1.0

    def test_degenerate_denominator(self, spec):
        result = EvaluationResult(np.array([2.0]), np.array([0.0]), 0.0, 0.0)
        with pytest.raises(ValueError, match="denominator degenerate"):
            efficiency(result, 1, single_bin(0.0, 2.0), curve_of(spec))


class TestFarmEvaluator:
    def test_subset_matches_direct_positions(self, spec, default_grid, rng):
        scenario = uniform_directions(12.0, 12)
        evaluator = FarmEvaluator(default_grid.points, scenario, spec)
        for _ in range(5):
            idx = np.sort(rng.choice(default_grid.count, size=10, replace=False))
            via_table = evaluator.evaluate(idx)
            direct = expected_farm_power(default_grid.points[idx], scenario, spec)
            assert via_table.total_power == pytest.approx(direct.total_power, rel=1e-12)
            assert np.allclose(
                via_table.per_turbine_power, direct.per_turbine_power, rtol=1e-12
            )

    def test_ragged_scenario_on_padded_table(self, spec, rng):
        # different numbers of speed bins per direction share the one path
        bins = ((0.0, 8.0, 0.25), (0.0, 12.0, 0.25), (180.0, 10.0, 0.5))
        scenario = WindScenario(bins, sector_count=2)
        pos = rng.uniform(0, 2000, size=(5, 2))
        got = FarmEvaluator(pos, scenario, spec).evaluate()
        speeds = [(w, effective_speeds(pos, t, v, spec)) for t, v, w in bins]
        by_hand = sum(w * power_values(curve_of(spec), u) for w, u in speeds)
        assert np.allclose(got.per_turbine_power, by_hand, rtol=1e-12)
        assert got.total_power == pytest.approx(by_hand.sum(), rel=1e-12)
        assert np.allclose(got.per_turbine_speed, sum(w * u for w, u in speeds), rtol=1e-12)

    def test_rejects_empty_indices(self, spec, default_grid):
        evaluator = FarmEvaluator(default_grid.points, single_bin(0.0, 12.0), spec)
        with pytest.raises(ValueError):
            evaluator.evaluate([])

    def test_rejects_out_of_range_indices(self, spec, default_grid):
        # flat pair offsets must not wrap into other rows of the table
        evaluator = FarmEvaluator(default_grid.points, single_bin(0.0, 12.0), spec)
        for bad in ([-1, 0], [0, default_grid.count]):
            with pytest.raises(ValueError, match="must lie in"):
                evaluator.evaluate(bad)


KERNEL_EDGE_THETAS = (0.0, 30.0, 45.0, 90.0, 135.0, 1e-9)


class TestOffsetTable:
    """The deficit table keyed on the pair offset against the per-pair
    matrix and the straight-line oracle."""

    def test_every_pair_matches_matrix(self, spec, default_grid):
        scenario = WindScenario(tuple((t, 12.0, 1.0 / 6) for t in KERNEL_EDGE_THETAS), 6)
        evaluator = FarmEvaluator(default_grid.points, scenario, spec)
        # a lattice of c cells with an integer edge has 2c + 1 offsets per axis
        assert evaluator._table.shape == (6, 41 * 41)
        keys = evaluator._pair_keys(np.arange(default_grid.count)[None, :])[0]
        for theta, row in zip(KERNEL_EDGE_THETAS, evaluator._table):
            got = row[keys]
            ref = squared_deficit_matrix(default_grid.points, theta, spec)
            assert np.abs(got - ref).max() <= 1e-14
            assert np.array_equal(got > 0.0, ref > 0.0)

    @pytest.mark.parametrize("numerator", ["standard", "paper_literal"])
    def test_non_integer_edge_grid_matches_oracle(self, spec, rng, numerator):
        # equal steps of 4000/30 m differ by an ulp; those offsets stay apart
        grid = build_grid(4000.0, 30)
        scenario = case_scenario("case3")
        evaluator = FarmEvaluator(grid.points, scenario, spec, numerator)
        assert evaluator._table.shape[1] > 61 * 61
        rows = np.array([rng.choice(grid.count, size=16, replace=False) for _ in range(4)])
        etas, powers = evaluator.evaluate_batch(rows)
        for row, eta, power in zip(rows, etas, powers):
            slow = straight_line_eval(grid.points[row], scenario, spec, numerator)
            assert eta == pytest.approx(slow.efficiency, rel=1e-9)
            assert np.allclose(power, slow.per_turbine_power, rtol=1e-9, atol=1e-9)

    def test_scattered_positions_match_oracle(self, spec, rng):
        pos = rng.uniform(0.0, 3000.0, size=(16, 2))
        scenario = case_scenario("case4")
        evaluator = FarmEvaluator(pos, scenario, spec)
        assert evaluator._table.shape == (12, (16 * 16 - 16 + 1) ** 2)
        got = evaluator.evaluate()
        slow = straight_line_eval(pos, scenario, spec)
        assert got.efficiency == pytest.approx(slow.efficiency, rel=1e-9)
        assert np.allclose(got.per_turbine_power, slow.per_turbine_power, rtol=1e-9, atol=1e-9)
        assert np.allclose(got.per_turbine_speed, slow.per_turbine_speed, rtol=1e-9)

    def test_memory_bounded_on_large_grid(self, spec):
        # 3,721 points under 12 directions: dense (T, M, M) tables needed
        # about 1.3 GB; the offset table holds 12 x 121**2 entries
        grid = build_grid(12000.0, 60)
        scenario = case_scenario("case3")
        tracemalloc.start()
        try:
            evaluator = FarmEvaluator(grid.points, scenario, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evaluator._table.shape == (12, 121 * 121)
        assert peak < 32 * 2**20

    def test_rejects_duplicate_points(self, spec):
        with pytest.raises(ValueError, match="distinct"):
            FarmEvaluator([(0.0, 0.0), (500.0, 0.0), (0.0, 0.0)], single_bin(0.0, 12.0), spec)

    def test_rejects_oversized_table(self, spec, rng):
        # 200 scattered points have about 200**2 offsets per axis
        with pytest.raises(ValueError, match="offset table"):
            FarmEvaluator(rng.uniform(0.0, 3000.0, size=(200, 2)), single_bin(0.0, 12.0), spec)


def pointwise_power(scenario, spec, ratio):
    """Reference expected power: every bin through the pointwise curve at the
    speed v * ratio, ratio = 1 - d, summed by hand; ratio is (T, N) in the
    evaluator's direction order."""
    thetas = list(dict.fromkeys(t for t, _, _ in scenario.bins))
    total = np.zeros(ratio.shape[1])
    for t, v, w in scenario.bins:
        total += w * power_values(curve_of(spec), v * ratio[thetas.index(t)])
    return total


def ulps_around(values, k=3):
    """Every float within k ulps of each value."""
    out = []
    for x in np.asarray(values, dtype=float):
        lo = hi = x
        out.append(x)
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


CUT_SPEEDS = WindScenario(
    (
        (0.0, 3.0, 0.2), (0.0, 14.0, 0.2), (0.0, 25.0, 0.1),
        (90.0, 3.0, 0.15), (90.0, 9.5, 0.15),
        (210.0, 25.0, 0.1), (210.0, 14.0, 0.1),
    ),
    sector_count=3,
)
ZERO_WEIGHTS = WindScenario(
    ((0.0, 12.0, 0.5), (0.0, 20.0, 0.0), (45.0, 8.0, 0.0), (180.0, 11.0, 0.5), (180.0, 4.0, 0.0)),
    sector_count=3,
)


class TestExpectedPowerTable:
    """The per-direction expected-power table against the pointwise curve and
    the straight-line oracle, at the points where the curve jumps or bends."""

    @pytest.mark.parametrize("scenario", [CUT_SPEEDS, ZERO_WEIGHTS, case_scenario("case4")],
                             ids=["cut-speeds", "zero-weights", "case4"])
    def test_layouts_match_pointwise_and_oracle(self, spec, rng, scenario):
        grid = build_grid(1500.0, 6)
        evaluator = FarmEvaluator(grid.points, scenario, spec)
        for n in (1, 4, 9):
            for _ in range(3):
                idx = np.sort(rng.choice(grid.count, size=n, replace=False))
                got = evaluator.evaluate(idx)
                pos = grid.points[idx]
                thetas = dict.fromkeys(t for t, _, _ in scenario.bins)
                ratio = np.array([effective_speeds(pos, t, 1.0, spec) for t in thetas])
                by_hand = pointwise_power(scenario, spec, ratio)
                slow = straight_line_eval(pos, scenario, spec)
                assert np.allclose(got.per_turbine_power, by_hand, rtol=1e-12, atol=1e-9)
                assert np.allclose(got.per_turbine_power, slow.per_turbine_power,
                                   rtol=1e-9, atol=1e-9)
                assert got.efficiency == pytest.approx(slow.efficiency, rel=1e-9)

    def test_speed_exactly_at_a_cut_scores_pointwise_when_unwaked(self, spec):
        # d = 0 is a piece of its own: 3.0 is on the quartic, 14.0 on the
        # plateau, 25.0 already cut out
        for v in (3.0, 14.0, 25.0):
            unit = FarmEvaluator([(0.0, 0.0)], single_bin(0.0, v), spec).unit_power
            assert unit == pytest.approx(power_at(curve_of(spec), v), rel=1e-13, abs=0.0)
        evaluator = FarmEvaluator([(0.0, 0.0)], CUT_SPEEDS, spec)
        by_hand = pointwise_power(CUT_SPEEDS, spec, np.ones((3, 1)))
        assert evaluator.unit_power == pytest.approx(by_hand[0], rel=1e-13)

    @pytest.mark.parametrize("scenario", [CUT_SPEEDS, ZERO_WEIGHTS, case_scenario("case4")],
                             ids=["cut-speeds", "zero-weights", "case4"])
    def test_ratios_ulps_around_every_breakpoint(self, spec, scenario):
        evaluator = FarmEvaluator([(0.0, 0.0)], scenario, spec)
        starts = evaluator._starts[evaluator._starts <= 1.0]
        ratio = ulps_around(starts)
        ratio = ratio[(ratio >= 0.0) & (ratio <= 1.0)]
        ratio = np.broadcast_to(ratio, (len(evaluator._starts), len(ratio)))
        got = evaluator._expected_power(ratio[:, None, :])[0]
        assert np.allclose(got, pointwise_power(scenario, spec, ratio), rtol=1e-12, atol=1e-9)

    def test_ratios_one_minus_d_around_the_cuts(self, spec):
        # a deficit a few ulps either side of 1 - c / v for each cut c
        evaluator = FarmEvaluator([(0.0, 0.0)], CUT_SPEEDS, spec)
        d = ulps_around([1.0 - c / v for c in (3.0, 14.0, 25.0) for v in (3.0, 9.5, 14.0, 25.0)
                         if 0.0 <= 1.0 - c / v <= 1.0] + [0.0, 1.0], k=4)
        d = d[(d >= 0.0) & (d <= 1.0)]
        ratio = np.broadcast_to(1.0 - d, (3, len(d)))
        got = evaluator._expected_power(ratio[:, None, :])[0]
        assert np.allclose(got, pointwise_power(CUT_SPEEDS, spec, ratio), rtol=1e-12, atol=1e-9)

    def test_paper_literal_clamped_deficits(self, spec):
        # 1 + sqrt(1 - Ct) at short range drives the combined deficit past 1
        pos = np.array([(0.0, 0.0), (0.0, 130.0), (0.0, 260.0), (10.0, 390.0)])
        scenario = WindScenario(((0.0, 12.0, 0.6), (180.0, 14.0, 0.4)), sector_count=2)
        sq = squared_deficit_matrix(pos, 0.0, spec, "paper_literal")
        assert np.sqrt(sq.sum(axis=1)).max() > 1.0
        got = FarmEvaluator(pos, scenario, spec, numerator="paper_literal").evaluate()
        slow = straight_line_eval(pos, scenario, spec, numerator="paper_literal")
        ratio = np.array([
            effective_speeds(pos, t, 1.0, spec, "paper_literal") for t in (0.0, 180.0)
        ])
        assert ratio.min() == 0.0
        assert np.allclose(got.per_turbine_power, pointwise_power(scenario, spec, ratio),
                           rtol=1e-12, atol=1e-9)
        assert np.allclose(got.per_turbine_power, slow.per_turbine_power, rtol=1e-9, atol=1e-9)
        assert got.total_power == pytest.approx(slow.total_power, rel=1e-9)

    def test_fine_binning_builds_in_chunks(self, spec, rng, monkeypatch):
        scenario = weibull_rose(2.1, 10.5, [k * 0.25 for k in range(121)])
        pos = rng.uniform(0, 2000, size=(6, 2))
        whole = FarmEvaluator(pos, scenario, spec)
        monkeypatch.setattr(power_module, "_TABLE_ELEMENTS", 5000)
        chunked = FarmEvaluator(pos, scenario, spec)
        assert np.array_equal(whole._starts, chunked._starts)
        assert np.allclose(whole._coef, chunked._coef, rtol=1e-13, atol=1e-9)
        slow = straight_line_eval(pos, scenario, spec)
        for evaluator in (whole, chunked):
            got = evaluator.evaluate()
            assert np.allclose(got.per_turbine_power, slow.per_turbine_power, rtol=1e-9, atol=1e-9)

    def test_degenerate_denominator(self, spec):
        evaluator = FarmEvaluator([(0.0, 0.0)], single_bin(0.0, 25.0), spec)
        assert evaluator.unit_power == 0.0
        with pytest.raises(ValueError, match="denominator degenerate"):
            evaluator.evaluate()
        with pytest.raises(ValueError, match="denominator degenerate"):
            evaluator.evaluate_batch([[0]])


class TestEvaluateBatch:
    def test_rows_match_evaluate(self, spec, default_grid, rng):
        evaluator = FarmEvaluator(default_grid.points, case_scenario("case4"), spec)
        rows = np.array([rng.choice(default_grid.count, size=16, replace=False) for _ in range(40)])
        etas, powers = evaluator.evaluate_batch(rows)
        assert etas.shape == (40,) and powers.shape == (40, 16)
        for row, eta, power in zip(rows, etas, powers):
            one = evaluator.evaluate(row)
            assert eta == pytest.approx(one.efficiency, rel=1e-12)
            assert np.allclose(power, one.per_turbine_power, rtol=1e-12)

    def test_chunked_batch_matches_whole(self, spec, default_grid, rng, monkeypatch):
        evaluator = FarmEvaluator(default_grid.points, case_scenario("case3"), spec)
        rows = np.array([rng.choice(default_grid.count, size=8, replace=False) for _ in range(25)])
        whole = evaluator.evaluate_batch(rows)
        monkeypatch.setattr(power_module, "_GATHER_ELEMENTS", 12 * 8 * 8 * 3)
        chunked = evaluator.evaluate_batch(rows)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])

    def test_wake_free_turbine_scores_unit_power_exactly(self, spec):
        # mirror-image and isolated turbines tie exactly, whatever the batch
        pos = [(i * 50000.0, i * 37000.0) for i in range(5)]
        evaluator = FarmEvaluator(pos, case_scenario("case4"), spec)
        etas, powers = evaluator.evaluate_batch([[0, 1, 2], [4, 3, 0]])
        assert np.all(powers == evaluator.unit_power)
        assert np.all(etas == 1.0)

    @pytest.mark.parametrize("rows", [[0, 1], [[0, 0]], [[]], [[0, 1], [1, 1]], [[0, 2]], [[-1, 0]]])
    def test_rejects_malformed_rows(self, spec, rows):
        evaluator = FarmEvaluator([(0.0, 0.0), (500.0, 0.0)], single_bin(0.0, 12.0), spec)
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(rows)
