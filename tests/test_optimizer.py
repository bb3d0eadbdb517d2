import math

import numpy as np
import pytest

from windlayout.cli import trace_records
from windlayout.optimizer import (
    ChaosStream,
    GAParams,
    Layout,
    chaos_position,
    initialize_population,
    mutate_twice,
    relocate,
    run_aga,
    run_conventional_ga,
)
from windlayout.power import FarmEvaluator
from windlayout.scenario import build_grid, single_bin, uniform_directions


@pytest.fixture
def stream():
    return ChaosStream(0.123)


class TestChaosStream:
    def test_map_step(self):
        s = ChaosStream(0.2)
        assert s.next() == pytest.approx(0.64, rel=1e-15)

    def test_absorbing_endpoint_guarded(self):
        # 0.5 maps to 1.0 exactly; the stream must step back inside (0, 1)
        s = ChaosStream(0.5 - 1e-16)  # nudged seed, forbidden values rejected
        x = s.next()
        assert 0.0 < x < 1.0
        for _ in range(100):
            x = s.next()
            assert 0.0 < x < 1.0

    def test_forbidden_seeds_rejected(self):
        for bad in (0.25, 0.5, 0.75, 0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                ChaosStream(bad)

    @pytest.mark.parametrize("seed, landing, nudge", [
        (1.0 - 1e-14, 0.0, 1.00004e-9),  # maps next to the absorbing 0
        (0.25 + 1e-14, 0.75, 1.00002e-9),  # maps next to the fixed point 0.75
    ])
    def test_nudged_off_zero_and_fixed_point(self, seed, landing, nudge):
        assert ChaosStream(seed).next() - landing == pytest.approx(nudge, rel=1e-4)

    def test_index_rejects_empty_range(self, stream):
        state = stream.state
        with pytest.raises(ValueError, match="n must be >= 1"):
            stream.index(0)
        assert stream.state == state

    def test_long_run_mean_is_arcsine(self):
        s = ChaosStream(0.123)
        vals = [s.next() for _ in range(10**5)]
        assert abs(np.mean(vals) - 0.5) < 0.02


class TestChaosPosition:
    def test_in_range(self, stream):
        for _ in range(500):
            assert 0 <= chaos_position(stream, 441) <= 440

    def test_forced_outcome(self, stream):
        exclude = set(range(441)) - {7}
        assert chaos_position(stream, 441, exclude) == 7

    def test_no_duplicates_with_growing_exclude(self, stream):
        seen = set()
        for _ in range(25):
            idx = chaos_position(stream, 25, seen)
            assert idx not in seen
            seen.add(idx)
        assert seen == set(range(25))

    def test_rejects_full_exclusion(self, stream):
        with pytest.raises(ValueError):
            chaos_position(stream, 5, set(range(5)))

    def test_scans_after_capped_redraws(self):
        # this orbit draws index 1 of 2 for 21 steps: the 20 capped redraws
        # all hit the excluded cell, and the scan starting at the 21st draw
        # returns the free one
        seed = 0.75 + 1e-7
        reference = ChaosStream(seed)
        assert [reference.index(2) for _ in range(21)] == [1] * 21
        stream = ChaosStream(seed)
        assert chaos_position(stream, 2, {1}) == 0
        assert stream.state == reference.state

    def test_all_cells_reachable(self, stream):
        hits = {chaos_position(stream, 21) for _ in range(5000)}
        assert hits == set(range(21))


class TestLayout:
    def test_sorted_and_validated(self):
        layout = Layout((5, 1, 3), 10)
        assert layout.occupied == (1, 3, 5)
        assert layout.n == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Layout((1, 1, 2), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Layout((0, 10), 10)

    def test_rejects_non_integral_indices(self):
        # truncating would turn (0.7, 5.9, "3") into the plausible (0, 3, 5)
        for bad in ((0.7, 5.9, "3"), (0.0, 1), ("3",), (np.float64(2.0),)):
            with pytest.raises(ValueError, match="integers"):
                Layout(bad, 10)
        assert Layout((np.int64(5), np.int32(1), 3), 10).occupied == (1, 3, 5)


class TestInitializePopulation:
    @staticmethod
    def small_params(population, seed=0.1357):
        return GAParams(population=population, elites=1, relocations=0, aliens=0,
                        chaos_seed=seed)

    def test_cardinality(self):
        params = self.small_params(30)
        pop = initialize_population(params, 441, 16, ChaosStream(params.chaos_seed))
        assert len(pop) == 30
        assert all(layout.n == 16 for layout in pop)

    def test_full_grid(self):
        params = self.small_params(3)
        pop = initialize_population(params, 9, 9, ChaosStream(params.chaos_seed))
        assert all(layout.occupied == tuple(range(9)) for layout in pop)

    def test_seed_sensitivity(self):
        pa, pb = self.small_params(5, 0.123), self.small_params(5, 0.321)
        a = initialize_population(pa, 100, 8, ChaosStream(pa.chaos_seed))
        b = initialize_population(pb, 100, 8, ChaosStream(pb.chaos_seed))
        assert [l.occupied for l in a] != [l.occupied for l in b]

    def test_rejects_overfull(self):
        params = self.small_params(2)
        with pytest.raises(ValueError):
            initialize_population(params, 10, 11, ChaosStream(params.chaos_seed))


def turbine_power(layout, grid, scenario, spec):
    """Expected power per turbine of a layout, ordered like its indices."""
    evaluator = FarmEvaluator(grid.points, scenario, spec)
    return evaluator.evaluate(layout.occupied).per_turbine_power


def worst_moved(layout, grid, scenario, spec):
    """The one index a relocation removes from the layout."""
    power = turbine_power(layout, grid, scenario, spec)
    moved = relocate(layout, power, ChaosStream(0.123))
    (worst,) = set(layout.occupied) - set(moved.occupied)
    return worst


class TestWorstTurbine:
    def test_tie_breaks_to_lowest_index(self, spec):
        grid = build_grid(4000.0, 4)
        layout = Layout((0, 2, 4), grid.count)
        # crosswind row: all turbines wake-free and tied
        assert worst_moved(layout, grid, single_bin(0.0, 12.0), spec) == 0

    def test_downstream_loser(self, spec):
        grid = build_grid(4000.0, 4)
        # same column, indices 2 (y=0) and 22 (y=4000); upwind has larger y
        layout = Layout((2, 22), grid.count)
        assert worst_moved(layout, grid, single_bin(0.0, 12.0), spec) == 2

    def test_matches_exhaustive_per_turbine_power(self, spec, rng):
        from windlayout.oracle import straight_line_eval

        grid = build_grid(3000.0, 5)
        scenario = uniform_directions(11.0, 6)
        for _ in range(10):
            occ = tuple(sorted(rng.choice(grid.count, size=5, replace=False).tolist()))
            layout = Layout(occ, grid.count)
            got = worst_moved(layout, grid, scenario, spec)
            positions = grid.points[list(layout.occupied)]
            powers = straight_line_eval(positions, scenario, spec).per_turbine_power
            assert got == occ[int(np.argmin(powers))]


class TestRelocateWorst:
    def test_full_grid_unchanged(self, spec, stream):
        grid = build_grid(1000.0, 2)
        layout = Layout(tuple(range(grid.count)), grid.count)
        power = turbine_power(layout, grid, single_bin(0.0, 12.0), spec)
        state = stream.state
        with pytest.raises(ValueError):
            relocate(layout, power, stream)
        assert stream.state == state  # no draw without a free cell

    def test_moves_downstream_turbine(self, spec, stream):
        grid = build_grid(4000.0, 4)
        layout = Layout((2, 22), grid.count)
        power = turbine_power(layout, grid, single_bin(0.0, 12.0), spec)
        moved = relocate(layout, power, stream)
        assert moved.n == 2
        assert 22 in moved.occupied
        assert 2 not in moved.occupied

    def test_cardinality_preserved(self, spec, stream, rng):
        grid = build_grid(2000.0, 4)
        scenario = single_bin(45.0, 12.0)
        for _ in range(50):
            occ = tuple(sorted(rng.choice(grid.count, size=6, replace=False).tolist()))
            layout = Layout(occ, grid.count)
            moved = relocate(layout, turbine_power(layout, grid, scenario, spec), stream)
            assert moved.n == 6
            assert len(set(moved.occupied)) == 6


class TestMutateTwice:
    def test_hamming_distance_two(self, stream, rng):
        for _ in range(200):
            occ = tuple(sorted(rng.choice(50, size=8, replace=False).tolist()))
            layout = Layout(occ, 50)
            mutant = mutate_twice(layout, stream)
            assert mutant.n == 8
            diff = set(occ) ^ set(mutant.occupied)
            assert len(diff) == 2

    def test_minimal_case_swaps(self, stream):
        layout = Layout((0,), 2)
        assert mutate_twice(layout, stream).occupied == (1,)

    def test_coverage_of_free_cells(self, stream):
        layout = Layout((0, 6, 12, 18, 24), 25)
        added = set()
        for _ in range(10**4):
            added |= set(mutate_twice(layout, stream).occupied) - set(layout.occupied)
        assert added == set(range(25)) - set(layout.occupied)

    def test_rejects_degenerate(self, stream):
        with pytest.raises(ValueError):
            mutate_twice(Layout((0, 1), 2), stream)


class TestGAParams:
    def test_split_validation(self):
        with pytest.raises(ValueError):
            GAParams(population=10, elites=4, relocations=4, aliens=4)
        with pytest.raises(ValueError):
            GAParams(elites=0)
        with pytest.raises(ValueError):
            GAParams(chaos_seed=0.75)

    @pytest.mark.parametrize("field", ["population", "relocations", "aliens", "max_generations"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            GAParams(**{field: -1})

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, target):
        # a NaN target never compares true and silently drops the stop rule
        with pytest.raises(ValueError, match="target_efficiency"):
            GAParams(target_efficiency=target)


class TestRunAga:
    def test_full_farm_copies_parents(self, spec):
        # no free cell: every relocation and mutant slot copies its parent
        grid = build_grid(1000.0, 1)
        params = GAParams(population=6, elites=1, relocations=2, aliens=1,
                          max_generations=3)
        best, trace = run_aga(params, grid, single_bin(0.0, 12.0), spec, grid.count)
        assert len(trace) == 4
        assert best.occupied == tuple(range(grid.count))

    def test_zero_target_stops_immediately(self, spec):
        grid = build_grid(2000.0, 4)
        params = GAParams(population=10, elites=2, relocations=3, aliens=2,
                          target_efficiency=0.0)
        _, trace = run_aga(params, grid, single_bin(0.0, 12.0), spec, 4)
        assert len(trace) == 1
        assert trace[0].generation == 0

    def test_single_turbine_immediately_optimal(self, spec):
        grid = build_grid(2000.0, 4)
        params = GAParams(population=8, elites=2, relocations=2, aliens=2,
                          target_efficiency=1.0)
        best, trace = run_aga(params, grid, single_bin(0.0, 12.0), spec, 1)
        assert trace[-1].best_eta == pytest.approx(1.0)
        assert best.n == 1

    def test_case1_fast_convergence(self, spec, default_grid):
        params = GAParams(target_efficiency=1.0, max_generations=50)
        _, trace = run_aga(params, default_grid, single_bin(0.0, 12.0), spec, 16)
        assert trace[-1].best_eta >= 1.0 - 1e-12
        assert trace[-1].generation <= 15

    def test_best_trace_non_decreasing(self, spec):
        grid = build_grid(1500.0, 5)
        params = GAParams(population=20, elites=3, relocations=6, aliens=3,
                          max_generations=30)
        for runner in (run_aga, run_conventional_ga):
            _, trace = runner(params, grid, uniform_directions(10.0, 4), spec, 5)
            best = [t.best_eta for t in trace]
            assert all(a <= b + 1e-15 for a, b in zip(best, best[1:]))

    def test_deterministic_repetition(self, spec):
        grid = build_grid(2000.0, 5)
        params = GAParams(population=16, elites=2, relocations=5, aliens=3,
                          max_generations=12)
        scenario = uniform_directions(11.0, 4)
        runs = [run_aga(params, grid, scenario, spec, 5) for _ in range(2)]
        (best_a, trace_a), (best_b, trace_b) = runs
        assert best_a == best_b
        assert trace_a == trace_b
        assert trace_records(trace_a) == trace_records(trace_b)

    def test_operator_cardinality_sweep(self, spec):
        # every individual of every generation keeps exactly n occupied cells
        grid = build_grid(1200.0, 4)
        params = GAParams(population=14, elites=3, relocations=4, aliens=3,
                          max_generations=25)
        _, trace = run_aga(params, grid, uniform_directions(9.0, 4), spec, 6)
        assert all(t.best_layout.n == 6 for t in trace)

    def test_small_instance_reaches_exhaustive_optimum(self, spec):
        from windlayout.oracle import exhaustive_best

        grid = build_grid(5 * 110.0, 5)  # 36 candidate points
        scenario = uniform_directions(10.0, 12)
        _, opt_eta = exhaustive_best(grid, 3, scenario, spec)
        params = GAParams(population=60, elites=6, relocations=18, aliens=6,
                          max_generations=500, target_efficiency=opt_eta)
        _, trace = run_aga(params, grid, scenario, spec, 3)
        assert trace[-1].best_eta >= opt_eta - 1e-12

    def test_overfull_farm_fails_before_any_table_is_built(self, spec, monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("FarmEvaluator built before the turbine count was checked")

        monkeypatch.setattr(FarmEvaluator, "__init__", no_tables)
        grid = build_grid(1000.0, 2)  # 9 candidate cells
        params = GAParams(population=4, elites=1, relocations=1, aliens=1)
        with pytest.raises(ValueError, match="more turbines than"):
            run_aga(params, grid, single_bin(0.0, 12.0), spec, grid.count + 1)


class TestConventionalGa:
    def test_dominated_by_aga_on_case1(self, spec, default_grid):
        scenario = single_bin(0.0, 12.0)
        params = GAParams(target_efficiency=1.0, max_generations=40, chaos_seed=0.37)
        _, aga = run_aga(params, default_grid, scenario, spec, 16)
        _, conv = run_conventional_ga(params, default_grid, scenario, spec, 16)
        horizon = min(len(aga), len(conv))
        assert all(aga[g].best_eta >= conv[g].best_eta - 1e-12 for g in range(horizon))
