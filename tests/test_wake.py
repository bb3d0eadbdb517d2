import math

import numpy as np
import pytest

from windlayout.wake import (
    DOWNWIND_EPS,
    TurbineSpec,
    build_wake_sets,
    decay_factor,
    effective_speeds,
    pairwise_deficit,
    squared_deficit_matrix,
    wake_radius,
)
from windlayout.geometry import rotate_frame, rotate_xy


class TestTurbineSpec:
    def test_defaults_valid(self, spec):
        assert spec.rotor_radius == 63.0
        assert spec.rated_power == 5000.0

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
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TurbineSpec(**kwargs)


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
    def test_zero_overlap(self, spec):
        assert pairwise_deficit(spec, 500.0, 0.0) == 0.0

    def test_full_overlap_value(self, onshore_spec):
        # direct evaluation of the deficit formula as the oracle
        k = decay_factor(onshore_spec)
        expected = (1.0 - math.sqrt(1.0 - 0.88)) / (1.0 + k * 250.0 / 20.0) ** 2
        got = pairwise_deficit(onshore_spec, 250.0, math.pi * 20.0**2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.137576, abs=1e-6)

    def test_decays_with_distance(self, spec):
        area = math.pi * 63.0**2
        assert pairwise_deficit(spec, 2000.0, area) < pairwise_deficit(spec, 200.0, area)

    def test_paper_literal_numerator(self, spec):
        area = math.pi * 63.0**2
        standard = pairwise_deficit(spec, 300.0, area, "standard")
        literal = pairwise_deficit(spec, 300.0, area, "paper_literal")
        ratio = (1.0 + math.sqrt(0.12)) / (1.0 - math.sqrt(0.12))
        assert literal == pytest.approx(standard * ratio, rel=1e-12)

    def test_rejects_non_positive_distance(self, spec):
        with pytest.raises(ValueError):
            pairwise_deficit(spec, 0.0, 100.0)

    def test_rejects_oversized_overlap(self, spec):
        with pytest.raises(ValueError):
            pairwise_deficit(spec, 100.0, 2 * math.pi * 63.0**2)


class TestBuildWakeSets:
    def test_crosswind_pair_empty(self, spec):
        pos = [(0.0, 0.0), (400.0, 0.0)]
        assert build_wake_sets(pos, 0.0, spec) == []

    def test_aligned_pair_full_containment(self, spec):
        d = 7 * 63.0
        pos = [(0.0, 0.0), (0.0, d)]
        entries = build_wake_sets(pos, 0.0, spec)
        assert len(entries) == 1
        e = entries[0]
        assert (e.downstream, e.upstream) == (0, 1)
        assert e.distance == pytest.approx(d)
        assert e.offset == pytest.approx(0.0)
        # wake radius exceeds the rotor at zero offset: rotor fully covered
        assert e.overlap_area == pytest.approx(math.pi * 63.0**2, rel=1e-12)

    def test_antisymmetric(self, spec, rng):
        pos = rng.uniform(0, 4000, size=(12, 2))
        for theta in (0.0, 37.0, 210.0):
            entries = build_wake_sets(pos, theta, spec)
            pairs = {(e.downstream, e.upstream) for e in entries}
            assert all((j, i) not in pairs for i, j in pairs)

    def test_frame_invariance(self, spec, rng):
        pos = rng.uniform(0, 4000, size=(10, 2))
        theta, delta = 75.0, 30.0
        base = build_wake_sets(pos, theta, spec)
        moved = build_wake_sets(rotate_xy(pos, delta), theta - delta, spec)
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert (a.downstream, a.upstream) == (b.downstream, b.upstream)
            assert a.distance == pytest.approx(b.distance, abs=1e-6)
            assert a.offset == pytest.approx(b.offset, abs=1e-6)
            assert a.overlap_area == pytest.approx(b.overlap_area, rel=1e-6)

    def test_rejects_duplicates(self, spec):
        with pytest.raises(ValueError):
            build_wake_sets([(0.0, 0.0), (0.0, 0.0)], 0.0, spec)

    def test_trig_noise_does_not_create_wakes(self, spec):
        # at 90 degrees a same-column pair becomes exactly crosswind; the
        # rotated separation is pure round-off and must stay excluded
        pos = [(0.0, 0.0), (0.0, 100.0)]
        assert build_wake_sets(pos, 90.0, spec) == []


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
        u = effective_speeds(pos, 180.0, 12.0, spec, numerator="paper_literal")
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
        from windlayout.geometry import circle_overlap_area

        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                d = rotated[j].y - rotated[i].y
                if d <= DOWNWIND_EPS:
                    assert mat[i, j] == 0.0
                    continue
                area = circle_overlap_area(63.0 + k * d, 63.0, abs(rotated[i].x - rotated[j].x))
                expected = pairwise_deficit(spec, d, area) ** 2 if area > 0 else 0.0
                assert mat[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-300)
