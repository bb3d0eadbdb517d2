import math
from dataclasses import replace

import numpy as np
import pytest

from windlayout.wake import (
    DOWNWIND_EPS,
    TurbineSpec,
    decay_factor,
    effective_speeds,
    squared_deficit_matrix,
    squared_deficits,
    wake_radius,
)
from windlayout.geometry import circle_overlap_area, overlap_areas, rotate_frame


class TestTurbineSpec:
    def test_defaults_valid(self, spec):
        assert spec.rotor_radius == 63.0
        assert spec.rated_power == 5000.0
        assert spec.deficit_numerator == "standard"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rotor_radius": -1.0},
            {"hub_height": 50.0},  # below the rotor radius
            {"thrust_coefficient": 1.2},
            {"surface_roughness": 0.0},
            {"cut_in": 15.0},  # above rated speed
            {"rated_power": 0.0},
            {"rated_power": math.inf},
            {"cut_in": -math.inf},
            {"power_poly": (math.nan, 0.0, 0.0, 0.0, 1.0)},
            {"deficit_numerator": "paper-literal"},
            {"deficit_numerator": ""},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TurbineSpec(**kwargs)

    def test_power_poly_must_be_a_quartic(self):
        with pytest.raises(ValueError, match="5 quartic coefficients"):
            TurbineSpec(power_poly=(21.6654, -113.1189, 201.1211, -55.0267))


class TestDecayFactor:
    def test_onshore_value(self, onshore_spec):
        assert decay_factor(onshore_spec) == pytest.approx(0.5 / math.log(200.0), rel=1e-12)
        assert decay_factor(onshore_spec) == pytest.approx(0.09437, abs=5e-6)

    def test_offshore_value(self, spec):
        assert decay_factor(spec) == pytest.approx(0.5 / math.log(180000.0), rel=1e-12)
        assert decay_factor(spec) == pytest.approx(0.04132, abs=5e-6)

    def test_unit_log(self):
        s = TurbineSpec(rotor_radius=10.0, hub_height=math.e * 12.0, surface_roughness=12.0)
        assert decay_factor(s) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_roughness(self):
        with pytest.raises(ValueError):
            TurbineSpec(surface_roughness=95.0)  # above hub height


class TestWakeRadius:
    def test_zero_distance(self, spec):
        assert wake_radius(spec, 0.0) == 63.0

    def test_linear_growth(self, spec):
        k = decay_factor(spec)
        assert wake_radius(spec, 1000.0) == pytest.approx(63.0 + 1000.0 * k, rel=1e-12)
        assert wake_radius(spec, 1000.0) == pytest.approx(104.32, abs=5e-3)

    def test_monotone(self, spec):
        assert wake_radius(spec, 500.0) < wake_radius(spec, 1000.0)

    def test_rejects_negative(self, spec):
        with pytest.raises(ValueError):
            wake_radius(spec, -1.0)


class TestPairwiseDeficit:
    """The deficit formula through ``squared_deficits``; at zero crosswind
    offset the wake covers the whole downstream rotor."""

    def test_zero_overlap(self, spec):
        # 2000 m crosswind, 500 m downwind: the discs are far apart
        assert squared_deficits(2000.0, 500.0, 0.0, spec) == 0.0

    def test_full_overlap_value(self, onshore_spec):
        # direct evaluation of the deficit formula as the oracle
        k = decay_factor(onshore_spec)
        expected = (1.0 - math.sqrt(1.0 - 0.88)) / (1.0 + k * 250.0 / 20.0) ** 2
        got = math.sqrt(squared_deficits(0.0, 250.0, 0.0, onshore_spec))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.137576, abs=1e-6)

    def test_decays_with_distance(self, spec):
        assert squared_deficits(0.0, 2000.0, 0.0, spec) < squared_deficits(0.0, 200.0, 0.0, spec)

    def test_paper_literal_numerator(self, spec):
        standard = math.sqrt(squared_deficits(0.0, 300.0, 0.0, spec))
        literal_spec = replace(spec, deficit_numerator="paper_literal")
        literal = math.sqrt(squared_deficits(0.0, 300.0, 0.0, literal_spec))
        ratio = (1.0 + math.sqrt(0.12)) / (1.0 - math.sqrt(0.12))
        assert literal == pytest.approx(standard * ratio, rel=1e-12)


def wakes(positions, theta, spec):
    """Ordered (waked, caster) pairs: the wake sets of one direction."""
    return {tuple(p) for p in np.argwhere(squared_deficit_matrix(positions, theta, spec) > 0.0)}


class TestBuildWakeSets:
    """Wake sets read off the squared-deficit matrix: entry [i, j] > 0 when
    turbine j's wake reaches turbine i."""

    def test_crosswind_pair_empty(self, spec):
        pos = [(0.0, 0.0), (400.0, 0.0)]
        assert wakes(pos, 0.0, spec) == set()

    def test_aligned_pair_full_containment(self, spec):
        d = 7 * 63.0
        pos = [(0.0, 0.0), (0.0, d)]
        assert wakes(pos, 0.0, spec) == {(0, 1)}
        # wake radius exceeds the rotor at zero offset: rotor fully covered
        k = decay_factor(spec)
        full = ((1.0 - math.sqrt(0.12)) / (1.0 + k * d / 63.0) ** 2) ** 2
        assert squared_deficit_matrix(pos, 0.0, spec)[0, 1] == pytest.approx(full, rel=1e-12)

    def test_antisymmetric(self, spec, rng):
        pos = rng.uniform(0, 4000, size=(12, 2))
        for theta in (0.0, 37.0, 210.0):
            pairs = wakes(pos, theta, spec)
            assert all((j, i) not in pairs for i, j in pairs)

    def test_frame_invariance(self, spec, rng):
        pos = rng.uniform(0, 4000, size=(10, 2))
        theta, delta = 75.0, 30.0
        base = squared_deficit_matrix(pos, theta, spec)
        rotated = [rotate_frame(p, delta) for p in pos]
        moved = squared_deficit_matrix(rotated, theta - delta, spec)
        assert np.array_equal(base > 0.0, moved > 0.0)
        assert np.allclose(base, moved, rtol=1e-6, atol=1e-15)

    def test_rejects_duplicates(self, spec):
        with pytest.raises(ValueError):
            squared_deficit_matrix([(0.0, 0.0), (0.0, 0.0)], 0.0, spec)

    def test_trig_noise_does_not_create_wakes(self, spec):
        # at 90 degrees a same-column pair becomes exactly crosswind; the
        # rotated separation is pure round-off and must stay excluded
        pos = [(0.0, 0.0), (0.0, 100.0)]
        assert wakes(pos, 90.0, spec) == set()


class TestEffectiveSpeeds:
    def test_single_turbine(self, spec):
        assert effective_speeds([(0.0, 0.0)], 0.0, 12.0, spec).tolist() == [12.0]

    def test_zero_wind(self, spec):
        u = effective_speeds([(0.0, 0.0), (0.0, 500.0)], 0.0, 0.0, spec)
        assert np.all(u == 0.0)

    def test_chain_matches_hand_rolled(self, spec):
        # straight-line evaluation of the deficit chain, written out here
        k = decay_factor(spec)
        amp = lambda d: (1 - math.sqrt(1 - 0.88)) / (1 + k * d / 63.0) ** 2
        pos = [(0.0, 1000.0), (0.0, 500.0), (0.0, 0.0)]
        u = effective_speeds(pos, 0.0, 12.0, spec)
        assert u[0] == 12.0
        assert u[1] == pytest.approx(12.0 * (1.0 - amp(500.0)), rel=1e-12)
        combined = math.sqrt(amp(1000.0) ** 2 + amp(500.0) ** 2)
        assert u[2] == pytest.approx(12.0 * (1.0 - combined), rel=1e-12)

    def test_never_exceeds_free_speed(self, spec, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            pos = rng.uniform(0, 3000, size=(n, 2))
            theta = float(rng.uniform(0, 360))
            v = float(rng.uniform(0, 25))
            u = effective_speeds(pos, theta, v, spec)
            assert np.all(u <= v + 1e-12)

    def test_removing_a_turbine_never_hurts(self, spec, rng):
        for _ in range(30):
            pos = rng.uniform(0, 2500, size=(7, 2))
            theta = float(rng.uniform(0, 360))
            u_full = effective_speeds(pos, theta, 12.0, spec)
            drop = int(rng.integers(0, 7))
            keep = [i for i in range(7) if i != drop]
            u_dropped = effective_speeds(pos[keep], theta, 12.0, spec)
            assert np.all(u_dropped >= u_full[keep] - 1e-12)

    def test_translation_invariance(self, spec, rng):
        pos = rng.uniform(0, 3000, size=(8, 2))
        u = effective_speeds(pos, 42.0, 11.0, spec)
        shifted = effective_speeds(pos + np.array([1234.5, -987.6]), 42.0, 11.0, spec)
        assert np.allclose(u, shifted, rtol=1e-12, atol=1e-12)

    def test_dense_layout_clamps_at_zero(self, spec):
        # a long tight chain under the literal numerator saturates the rss
        pos = [(0.0, 130.0 * i) for i in range(10)]
        u = effective_speeds(pos, 180.0, 12.0, replace(spec, deficit_numerator="paper_literal"))
        assert np.all(u >= 0.0)
        assert u.min() == 0.0

    def test_rejects_negative_speed(self, spec):
        with pytest.raises(ValueError):
            effective_speeds([(0.0, 0.0)], 0.0, -1.0, spec)


class TestSquaredDeficitMatrix:
    def test_matches_pairwise_formula(self, spec, rng):
        pos = rng.uniform(0, 3000, size=(6, 2))
        theta = 123.0
        mat = squared_deficit_matrix(pos, theta, spec)
        rotated = [rotate_frame(p, theta) for p in pos]
        k = decay_factor(spec)
        per_area = (1.0 - math.sqrt(0.12)) / (math.pi * 63.0**2)

        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                d = rotated[j].y - rotated[i].y
                if d <= DOWNWIND_EPS:
                    assert mat[i, j] == 0.0
                    continue
                area = circle_overlap_area(63.0 + k * d, 63.0, abs(rotated[i].x - rotated[j].x))
                expected = (per_area * area / (1.0 + k * d / 63.0) ** 2) ** 2
                assert mat[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def rotated_frame_matrix(positions, theta, spec):
    """Squared pairwise deficits from positions rotated into the wind frame,
    the form the dense tables used before the deficit was keyed on the pair
    offset: d[i, j] = y'_j - y'_i, crosswind |x'_i - x'_j|."""
    x, y = np.array([rotate_frame(p, theta) for p in positions]).T
    k, R = decay_factor(spec), spec.rotor_radius
    d = y[None, :] - y[:, None]
    upwind = d > DOWNWIND_EPS
    dd = np.where(upwind, d, 1.0)
    area = overlap_areas(R + k * dd, R, np.abs(x[:, None] - x[None, :]))
    root = math.sqrt(1.0 - spec.thrust_coefficient)
    literal = spec.deficit_numerator == "paper_literal"
    amp = (1.0 + root if literal else 1.0 - root) / (1.0 + k * dd / R) ** 2
    return np.where(upwind, amp * area / (math.pi * R**2), 0.0) ** 2


class TestSquaredDeficits:
    @pytest.mark.parametrize("theta", [0.0, 30.0, 45.0, 90.0, 135.0, 1e-9, 217.3])
    @pytest.mark.parametrize("numerator", ["standard", "paper_literal"])
    def test_offsets_match_rotated_positions(self, spec, default_grid, theta, numerator):
        # crosswind neighbours sit near DOWNWIND_EPS at 1e-9 degrees and on
        # the diagonals; none may change side
        spec = replace(spec, deficit_numerator=numerator)
        got = squared_deficit_matrix(default_grid.points, theta, spec)
        ref = rotated_frame_matrix(default_grid.points, theta, spec)
        assert np.abs(got - ref).max() <= 1e-14
        assert np.array_equal(got > 0.0, ref > 0.0)

    def test_broadcasts_offsets(self, spec):
        dx = np.array([-200.0, 0.0, 200.0])[:, None]
        dy = np.array([0.0, 400.0, 800.0])[None, :]
        table = squared_deficits(dx, dy, 0.0, spec)
        assert table.shape == (3, 3)
        # the caster must lie upwind (dy > 0 at 0 degrees) and overlap
        assert np.all(table[:, 0] == 0.0)
        assert table[1, 1] > table[1, 2] > 0.0
        pos = [(0.0, 0.0), (0.0, 400.0)]
        assert table[1, 1] == squared_deficit_matrix(pos, 0.0, spec)[0, 1]

    def test_subnormal_direction_warns_nothing(self, spec, default_grid):
        # at theta = 2.2250738585e-313 degrees crosswind offsets are about
        # 1e-312 m; the lens formula used to overflow on them
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = squared_deficit_matrix(default_grid.points, 2.2250738585e-313, spec)
        assert np.array_equal(got, squared_deficit_matrix(default_grid.points, 0.0, spec))
