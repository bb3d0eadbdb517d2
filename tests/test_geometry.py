import math

import numpy as np
import pytest

from windlayout.geometry import (
    Point,
    circle_overlap_area,
    overlap_areas,
    rotate_frame,
    rotate_xy,
)
from windlayout.oracle import mc_overlap


class TestRotateFrame:
    def test_identity(self):
        assert rotate_frame((1.0, 0.0), 0.0) == Point(1.0, 0.0)

    def test_quarter_turn(self):
        p = rotate_frame((1.0, 0.0), 90.0)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_matrix_product(self):
        # independent 2x2 product as the oracle
        theta = math.radians(30.0)
        m = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        expected = m @ np.array([3.0, 4.0])
        got = rotate_frame((3.0, 4.0), 30.0)
        assert got.x == pytest.approx(expected[0], rel=1e-14)
        assert got.y == pytest.approx(expected[1], rel=1e-14)

    def test_composition(self, rng):
        for _ in range(50):
            x, y = rng.uniform(-1e5, 1e5, size=2)
            a, b = rng.uniform(-360, 360, size=2)
            once = rotate_frame(rotate_frame((x, y), a), b)
            direct = rotate_frame((x, y), a + b)
            assert once.x == pytest.approx(direct.x, abs=1e-9)
            assert once.y == pytest.approx(direct.y, abs=1e-9)

    def test_norm_preserved(self, rng):
        for _ in range(200):
            x, y = rng.uniform(-1e5, 1e5, size=2)
            theta = rng.uniform(-720, 720)
            p = rotate_frame((x, y), theta)
            assert math.hypot(p.x, p.y) == pytest.approx(math.hypot(x, y), rel=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rotate_frame((math.nan, 0.0), 10.0)

    def test_vectorised_agrees_with_scalar(self, rng):
        pts = rng.uniform(-4000, 4000, size=(40, 2))
        rotated = rotate_xy(pts, 123.4)
        for row, p in zip(rotated, pts):
            q = rotate_frame(p, 123.4)
            assert row[0] == q.x and row[1] == q.y


class TestCircleOverlapArea:
    def test_disjoint(self):
        assert circle_overlap_area(100.0, 50.0, 200.0) == 0.0

    def test_full_containment(self):
        assert circle_overlap_area(100.0, 50.0, 0.0) == pytest.approx(math.pi * 50.0**2)

    def test_wake_inside_rotor(self):
        # the smaller disc is the wake: intersection caps at the wake area
        assert circle_overlap_area(30.0, 80.0, 10.0) == pytest.approx(math.pi * 30.0**2)

    def test_lens_against_monte_carlo(self):
        area = circle_overlap_area(100.0, 50.0, 120.0)
        est, se = mc_overlap(100.0, 50.0, 120.0, 10**7, seed=0)
        assert abs(area - est) <= 3.0 * se
        assert abs(area - est) / est < 0.002

    def test_lens_symmetry(self, rng):
        for _ in range(100):
            a, b = rng.uniform(10, 150, size=2)
            d = rng.uniform(abs(a - b), a + b)
            assert circle_overlap_area(a, b, d) == pytest.approx(
                circle_overlap_area(b, a, d), rel=1e-12
            )

    def test_continuity_across_boundaries(self, rng):
        eps = 1e-6
        for _ in range(100):
            r, R = rng.uniform(20, 150, size=2)
            for edge in (r + R, abs(r - R)):
                lo = circle_overlap_area(r, R, max(edge - eps, 0.0))
                hi = circle_overlap_area(r, R, edge + eps)
                assert abs(hi - lo) < 1e-3

    def test_monotone_in_offset(self, rng):
        for _ in range(50):
            r, R = rng.uniform(20, 150, size=2)
            offsets = np.linspace(0.0, r + R + 20.0, 80)
            areas = [circle_overlap_area(r, R, d) for d in offsets]
            assert all(a >= b - 1e-9 for a, b in zip(areas, areas[1:]))

    def test_monte_carlo_agreement_random_triples(self, rng):
        for _ in range(100):
            r = float(rng.uniform(10, 200))
            R = float(rng.uniform(10, 200))
            d = float(rng.uniform(0, r + R + 30))
            est, se = mc_overlap(r, R, d, 10**4, seed=int(rng.integers(2**31)))
            assert abs(circle_overlap_area(r, R, d) - est) <= max(3.0 * se, 1e-9)

    def test_result_bounded(self, rng):
        for _ in range(200):
            r = float(rng.uniform(1, 300))
            R = float(rng.uniform(1, 300))
            d = float(rng.uniform(0, 700))
            area = circle_overlap_area(r, R, d)
            assert 0.0 <= area <= math.pi * min(r, R) ** 2 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            circle_overlap_area(-1.0, 50.0, 10.0)
        with pytest.raises(ValueError):
            circle_overlap_area(50.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            circle_overlap_area(50.0, 50.0, -2.0)
        with pytest.raises(ValueError):
            circle_overlap_area(math.inf, 50.0, 10.0)

    def test_vectorised_kernel_matches_scalar(self, rng):
        r = rng.uniform(10, 200, size=300)
        R = rng.uniform(10, 200, size=300)
        d = rng.uniform(0, 450, size=300)
        vec = overlap_areas(r, R, d)
        for i in range(300):
            assert vec[i] == pytest.approx(
                circle_overlap_area(r[i], R[i], d[i]), rel=1e-12, abs=1e-9
            )

    def test_tiny_offset_is_containment_without_overflow(self):
        # a crosswind offset of 1e-312 must not reach the lens formula, which
        # divides by the offset and squares the quotient
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            area = overlap_areas(np.array([80.0, 63.0]), 63.0, np.full(2, 1e-312))
        assert np.array_equal(area, np.full(2, math.pi * 63.0**2))

    def test_scalar_arguments(self):
        assert overlap_areas(100.0, 50.0, 200.0) == 0.0
        assert overlap_areas(100.0, 50.0, 120.0) == circle_overlap_area(100.0, 50.0, 120.0)
