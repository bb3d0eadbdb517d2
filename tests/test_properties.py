"""Property tests: the batched evaluator against the straight-line oracle on
random turbines, wind scenarios (ragged and zero-weight bins included),
layouts and both deficit numerators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windlayout.oracle import straight_line_eval
from windlayout.power import FarmEvaluator
from windlayout.scenario import WindScenario, build_grid
from windlayout.wake import NUMERATOR_MODES, TurbineSpec

DEFAULT_POLY = TurbineSpec().power_poly

# overflow in a masked-out branch is still a defect: random directions put
# crosswind neighbours at tiny non-zero offsets
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    return WindScenario(tuple((t, v, w / total) for t, v, w in bins), sector_count=len(thetas))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_evaluator_matches_oracle(data):
    spec = data.draw(turbine_specs())
    scenario = data.draw(scenarios(spec))
    numerator = data.draw(st.sampled_from(NUMERATOR_MODES))
    grid = build_grid(data.draw(st.floats(2.0, 6.0)) * spec.rotor_radius * 4, 4)
    n = data.draw(st.integers(1, 6))
    rows = np.array(data.draw(st.lists(
        st.permutations(range(grid.count)).map(lambda p: p[:n]), min_size=1, max_size=4)))

    evaluator = FarmEvaluator(grid.points, scenario, spec, numerator)
    try:
        slow = [straight_line_eval(grid.points[row], scenario, spec, numerator) for row in rows]
    except ValueError as exc:
        assert "denominator degenerate" in str(exc)
        with pytest.raises(ValueError, match="denominator degenerate"):
            evaluator.evaluate_batch(rows)
        return
    etas, powers = evaluator.evaluate_batch(rows)
    for eta, power, ref in zip(etas, powers, slow):
        assert eta == pytest.approx(ref.efficiency, rel=1e-9, abs=1e-12)
        assert np.allclose(power, ref.per_turbine_power, rtol=1e-9, atol=1e-9 * spec.rated_power)
