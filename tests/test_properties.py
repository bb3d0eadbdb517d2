"""Property tests on random turbines, wind scenarios (ragged and zero-weight
bins included), layouts and both deficit numerators: the batched evaluator
against the straight-line oracle, 360-degree periodicity of the directions
and invariance under reordering a row; and, on random tiny instances, the
search: every row it scores is what a checked Layout stores, elitism, every
generation's best re-scored by the oracle, and the conventional GA as a
population split of the adapted loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from windlayout import optimizer
from windlayout.cli import trace_records
from windlayout.optimizer import (
    FORBIDDEN_SEEDS,
    ChaosStream,
    GAParams,
    Layout,
    run_aga,
    run_conventional_ga,
)
from windlayout.oracle import straight_line_eval
from windlayout.power import FarmEvaluator
from windlayout.scenario import WindScenario, build_grid, single_bin, uniform_directions
from windlayout.wake import NUMERATOR_MODES, TurbineSpec

DEFAULT_POLY = TurbineSpec().power_poly


@st.composite
def turbine_specs(draw):
    radius = draw(st.floats(20.0, 80.0))
    cut_in = draw(st.floats(1.0, 5.0))
    rated = cut_in + draw(st.floats(3.0, 12.0))
    scale = draw(st.floats(0.2, 2.0))
    jitter = draw(st.lists(st.floats(-0.05, 0.05), min_size=5, max_size=5))
    return TurbineSpec(
        rotor_radius=radius,
        hub_height=radius + draw(st.floats(10.0, 80.0)),
        thrust_coefficient=draw(st.floats(0.3, 0.95)),
        surface_roughness=draw(st.floats(1e-4, 0.5)),
        rated_power=draw(st.floats(500.0, 8000.0)),
        cut_in=cut_in,
        rated_speed=rated,
        cut_out=draw(st.one_of(st.just(math.inf), st.floats(rated + 2.0, rated + 15.0))),
        power_poly=tuple(scale * c * (1.0 + e) for c, e in zip(DEFAULT_POLY, jitter)),
    )


@st.composite
def scenarios(draw, spec):
    """1-4 directions with 1-4 bins each; some speeds sit exactly on a cut
    and some weights are zero."""
    thetas = draw(st.lists(st.floats(0.0, 359.9), min_size=1, max_size=4, unique=True))
    speed = st.one_of(st.floats(0.0, 30.0), st.sampled_from(
        [spec.cut_in, spec.rated_speed, spec.cut_out if math.isfinite(spec.cut_out) else 0.0]))
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    bins = [
        (theta, draw(speed), draw(weight))
        for theta in thetas
        for _ in range(draw(st.integers(1, 4)))
    ]
    total = math.fsum(w for _, _, w in bins)
    if total == 0.0:
        bins[0] = (bins[0][0], bins[0][1], 1.0)
        total = 1.0
    return WindScenario(tuple((t, v, w / total) for t, v, w in bins))


def farms(data, min_turbines=1):
    """A random spec (deficit numerator included), scenario, 4 x 4-cell grid
    and (P, n) block of index rows."""
    spec = data.draw(turbine_specs())
    scenario = data.draw(scenarios(spec))
    spec = replace(spec, deficit_numerator=data.draw(st.sampled_from(NUMERATOR_MODES)))
    grid = build_grid(data.draw(st.floats(2.0, 6.0)) * spec.rotor_radius * 4, 4)
    n = data.draw(st.integers(min_turbines, 6))
    rows = np.array(data.draw(st.lists(
        st.permutations(range(grid.count)).map(lambda p: p[:n]), min_size=1, max_size=4)))
    return spec, scenario, grid, rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_evaluator_matches_oracle(data):
    spec, scenario, grid, rows = farms(data)
    evaluator = FarmEvaluator(grid.points, scenario, spec)
    try:
        slow = [straight_line_eval(grid.points[row], scenario, spec) for row in rows]
    except ValueError as exc:
        assert "denominator degenerate" in str(exc)
        with pytest.raises(ValueError, match="denominator degenerate"):
            evaluator.evaluate_batch(rows)
        return
    etas, powers = evaluator.evaluate_batch(rows)
    for eta, power, ref in zip(etas, powers, slow):
        assert eta == pytest.approx(ref.efficiency, rel=1e-9, abs=1e-12)
        assert np.allclose(power, ref.per_turbine_power, rtol=1e-9, atol=1e-9 * spec.rated_power)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_directions_are_periodic_in_360_degrees(data):
    spec, scenario, grid, rows = farms(data)
    base = FarmEvaluator(grid.points, scenario, spec)
    assume(base.unit_power > 0.0)
    etas, powers = base.evaluate_batch(rows)
    for turn in (360.0, -360.0):
        bins = tuple((theta + turn, v, w) for theta, v, w in scenario.bins)
        turned = WindScenario(bins)
        turned_evaluator = FarmEvaluator(grid.points, turned, spec)
        got_etas, got_powers = turned_evaluator.evaluate_batch(rows)
        assert np.allclose(got_etas, etas, rtol=1e-12, atol=0.0)
        assert np.allclose(got_powers, powers, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_permuting_a_row_permutes_its_power(data):
    spec, scenario, grid, rows = farms(data, min_turbines=2)
    evaluator = FarmEvaluator(grid.points, scenario, spec)
    assume(evaluator.unit_power > 0.0)
    order = np.array(data.draw(st.permutations(range(rows.shape[1]))))
    etas, powers = evaluator.evaluate_batch(rows)
    got_etas, got_powers = evaluator.evaluate_batch(rows[:, order])
    assert np.allclose(got_powers, powers[:, order], rtol=1e-12, atol=0.0)
    # eta exceeds 1 where a wake pulls a turbine below cut-out; bound the
    # reordered sum by 1e-15 of max(1, eta)
    assert np.all(np.abs(got_etas - etas) <= 1e-15 * np.maximum(1.0, etas))


def searches(data):
    """A tiny search instance: spec (deficit numerator drawn), a grid of 2-4
    cells per side, a single-bin or uniform scenario above cut-in, 2-4
    turbines and small GAParams with at most 30 generations."""
    spec = TurbineSpec(deficit_numerator=data.draw(st.sampled_from(NUMERATOR_MODES)))
    cells = data.draw(st.integers(2, 4))
    grid = build_grid(data.draw(st.floats(2.0, 8.0)) * spec.rotor_radius * cells, cells)
    speed = data.draw(st.floats(spec.cut_in + 0.5, spec.cut_out - 0.5))
    scenario = data.draw(st.one_of(
        st.floats(0.0, 359.9).map(lambda theta: single_bin(theta, speed)),
        st.integers(1, 12).map(lambda sectors: uniform_directions(speed, sectors)),
    ))
    population = data.draw(st.integers(2, 16))
    elites = data.draw(st.integers(1, min(3, population)))
    relocations = data.draw(st.integers(0, population - elites))
    params = GAParams(
        population=population,
        elites=elites,
        relocations=relocations,
        aliens=data.draw(st.integers(0, population - elites - relocations)),
        max_generations=data.draw(st.integers(0, 30)),
        chaos_seed=data.draw(st.floats(0.01, 0.99).filter(lambda x: x not in FORBIDDEN_SEEDS)),
    )
    return params, grid, scenario, spec, data.draw(st.integers(2, 4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bred_children_pass_the_checks_they_skip(data):
    # the search breeds bare tuples: every row it scores must be what the
    # checked Layout would store, and every moved child must differ from its
    # parent in exactly two cells
    params, grid, scenario, spec, _ = searches(data)
    m = len(grid.points)
    n = data.draw(st.integers(1, m))
    scored, moves = [], []
    score, move = FarmEvaluator.evaluate_batch, optimizer._moved

    def recording_score(self, rows):
        scored.extend(rows)
        return score(self, rows)

    def recording_move(occupied, *args):
        child = move(occupied, *args)
        moves.append((occupied, child))
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FarmEvaluator, "evaluate_batch", recording_score)
        patch.setattr(optimizer, "_moved", recording_move)
        run_aga(params, grid, scenario, spec, n)
    assert scored
    for row in scored:
        assert type(row) is tuple and all(type(i) is int for i in row)
        assert row == Layout(row, m).occupied
        assert len(row) == n
    for parent, child in moves:
        assert len(set(child) ^ set(parent)) == 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_best_eta_never_decreases(data):
    params, grid, scenario, spec, n = searches(data)
    for search in (run_aga, run_conventional_ga):
        _, trace = search(params, grid, scenario, spec, n)
        best = [t.best_eta for t in trace]
        assert all(a <= b for a, b in zip(best, best[1:]))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_each_generations_best_matches_the_oracle(data):
    params, grid, scenario, spec, n = searches(data)
    for search in (run_aga, run_conventional_ga):
        best, trace = search(params, grid, scenario, spec, n)
        assert best == trace[-1].best_layout
        slow = {}
        for t in trace:
            if t.best_layout not in slow:
                slow[t.best_layout] = straight_line_eval(
                    grid.points[list(t.best_layout.occupied)], scenario, spec)
            ref = slow[t.best_layout]
            assert t.best_eta == pytest.approx(ref.efficiency, rel=1e-9)
            assert t.best_power == pytest.approx(ref.total_power, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_conventional_ga_is_the_adapted_loop_with_relocations_as_aliens(data):
    params, grid, scenario, spec, n = searches(data)
    split = replace(params, relocations=0, aliens=params.aliens + params.relocations)
    _, conventional = run_conventional_ga(params, grid, scenario, spec, n)
    _, adapted = run_aga(split, grid, scenario, spec, n)
    assert trace_records(conventional) == trace_records(adapted)
