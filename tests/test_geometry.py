"""Geometry primitives: piecewise distance, norms, closed boxes.

Scores go through the materialized scorers, the path every command uses.
"""

import math

import numpy as np
import pytest

from boxkg.geometry import lx_norm, piecewise_distance
from boxkg.model import ExplicitConfig, config_binary_scores, config_unary_scores


def reference_distance(p: float, lower: float, upper: float) -> float:
    """Scalar reimplementation of the piecewise rule, used as an oracle."""
    center = (lower + upper) / 2.0
    width = upper - lower + 1.0
    if lower <= p <= upper:
        return abs(p - center) / width
    kappa = 0.5 * (width - 1.0) * (width - 1.0 / width)
    return abs(p - center) * width - kappa


def random_box(rng, dim):
    lower = rng.uniform(-5, 5, dim)
    upper = lower + rng.uniform(0, 4, dim)
    return lower, upper


def center(box):
    return 0.5 * (box[0] + box[1])


def box_config(positions, head_box, tail_box=None, norm=2):
    """Zero bumps, so the scored points are the positions themselves.

    The head box is also the only class box.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    lower, upper = (np.atleast_2d(c) for c in head_box)
    tail_lower, tail_upper = (np.atleast_2d(c) for c in (tail_box or head_box))
    return ExplicitConfig(
        positions=positions,
        bumps=np.zeros_like(positions),
        class_lower=lower,
        class_upper=upper,
        rel_head_lower=lower,
        rel_head_upper=upper,
        rel_tail_lower=tail_lower,
        rel_tail_upper=tail_upper,
        norm=norm,
    )


def unary_score(point, box, norm=2) -> float:
    return float(config_unary_scores(box_config([point], box, norm=norm), [0], [0])[0])


def binary_score(head, tail, head_box, tail_box, norm=2) -> float:
    cfg = box_config([head, tail], head_box, tail_box, norm)
    return float(config_binary_scores(cfg, [0], [0], [1])[0])


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            box_config([[0.5]], (np.array([1.0]), np.array([0.0])))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            box_config([[0.5]], (np.array([np.nan]), np.array([1.0])))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            box_config([[0.5]], (np.array([0.0]), np.array([1.0, 2.0])))

    def test_width_of_degenerate_box_is_one(self):
        # width 1 makes both branches plain |p - c|
        points = np.array([-1.5, 2.0, 3.25])
        got = piecewise_distance(points, np.full(3, 2.0), np.full(3, 2.0))
        np.testing.assert_array_equal(got, np.abs(points - 2.0))


class TestPointBoxDistance:
    def test_center_is_zero(self):
        assert piecewise_distance(0.0, -1.0, 1.0) == 0.0

    def test_inside_and_outside_values(self):
        # box [-1, 1]: width 3, kappa 8/3
        inside = piecewise_distance(0.5, -1.0, 1.0)
        outside = piecewise_distance(2.0, -1.0, 1.0)
        assert inside == pytest.approx(0.5 / 3.0, abs=1e-12)
        assert outside == pytest.approx(2.0 * 3.0 - 8.0 / 3.0, abs=1e-12)

    def test_boundary_continuity_on_example(self):
        at_edge = piecewise_distance(1.0, -1.0, 1.0)
        # both branch formulas give 1/3 at the upper corner
        assert at_edge == pytest.approx(1.0 / 3.0, abs=1e-12)
        width = 3.0
        kappa = 0.5 * (width - 1) * (width - 1 / width)
        assert abs(1.0 * width - kappa - at_edge) < 1e-12

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            lower, upper = random_box(rng, dim)
            point = rng.uniform(-10, 10, dim)
            got = piecewise_distance(point, lower, upper)
            want = [reference_distance(p, l, u) for p, l, u in zip(point, lower, upper)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            box_config([[0.0]], (np.zeros(2), np.ones(2)))

    def test_continuity_at_random_boundaries(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            lower, upper = random_box(rng, dim)
            point = center((lower, upper))
            axis = int(rng.integers(dim))
            corner = upper if rng.random() < 0.5 else lower
            point[axis] = corner[axis]
            width = upper[axis] - lower[axis] + 1.0
            mid = 0.5 * (lower[axis] + upper[axis])
            kappa = 0.5 * (width - 1) * (width - 1 / width)
            inside_val = abs(point[axis] - mid) / width
            outside_val = abs(point[axis] - mid) * width - kappa
            assert abs(inside_val - outside_val) < 1e-9

    def test_outside_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            lower, upper = random_box(rng, dim)
            point = rng.uniform(-10, 10, dim)
            axis = int(rng.integers(dim))
            point[axis] = upper[axis] + rng.uniform(0.01, 5)
            further = point.copy()
            further[axis] += rng.uniform(0.01, 5)
            d_near = piecewise_distance(point, lower, upper)[axis]
            d_far = piecewise_distance(further, lower, upper)[axis]
            assert d_far >= d_near

    def test_inside_branch_bounded_by_half(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            lower, upper = random_box(rng, dim)
            point = rng.uniform(lower, upper)
            assert np.all(piecewise_distance(point, lower, upper) <= 0.5)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            lower, upper = random_box(rng, dim)
            point = rng.uniform(-10, 10, dim)
            shift = rng.uniform(-20, 20, dim)
            np.testing.assert_allclose(
                piecewise_distance(point + shift, lower + shift, upper + shift),
                piecewise_distance(point, lower, upper),
                atol=1e-9,
            )


class TestScores:
    def test_unary_zero_at_center(self):
        box = (np.array([-2.0, 1.0]), np.array([4.0, 3.0]))
        for norm in (1, 2):
            assert unary_score(center(box), box, norm) == 0.0

    def test_unary_zero_only_at_center(self):
        rng = np.random.default_rng(5)
        box = random_box(rng, 3)
        for _ in range(50):
            point = rng.uniform(-6, 6, 3)
            if np.allclose(point, center(box)):
                continue
            for norm in (1, 2):
                assert unary_score(point, box, norm) > 0.0

    def test_unary_examples(self):
        box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        point = np.array([0.5, 2.0])
        want_components = (0.5 / 3.0, 2.0 * 3.0 - 8.0 / 3.0)
        assert unary_score(point, box, 1) == pytest.approx(sum(want_components), abs=1e-9)
        assert unary_score(point, box, 2) == pytest.approx(
            math.hypot(*want_components), abs=1e-9
        )

    def test_binary_is_sum_of_sides(self):
        rng = np.random.default_rng(6)
        head_box = random_box(rng, 3)
        tail_box = random_box(rng, 3)
        head = rng.uniform(-5, 5, 3)
        tail = rng.uniform(-5, 5, 3)
        for norm in (1, 2):
            total = binary_score(head, tail, head_box, tail_box, norm)
            assert total == pytest.approx(
                unary_score(head, head_box, norm) + unary_score(tail, tail_box, norm)
            )

    def test_binary_zero_at_both_centers(self):
        rng = np.random.default_rng(7)
        head_box = random_box(rng, 2)
        tail_box = random_box(rng, 2)
        assert binary_score(center(head_box), center(tail_box), head_box, tail_box) == 0.0

    def test_binary_not_symmetric_under_box_swap(self):
        head_box = (np.array([0.0]), np.array([1.0]))
        tail_box = (np.array([10.0]), np.array([11.0]))
        head, tail = np.array([0.5]), np.array([10.5])
        straight = binary_score(head, tail, head_box, tail_box)
        swapped = binary_score(head, tail, tail_box, head_box)
        assert straight == 0.0
        assert swapped > 1.0

    def test_norm_order_validated(self):
        box = (np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            box_config([[0.0]], box, norm=3)

    def test_lx_norm_values(self):
        values = np.array([3.0, 4.0])
        assert lx_norm(values, 1) == 7.0
        assert lx_norm(values, 2) == 5.0


class TestContains:
    def test_boundary_counts_as_inside(self):
        # on a corner the two branches agree only up to rounding; the closed
        # rule must give the inside branch's value exactly
        rng = np.random.default_rng(9)
        lower, upper = random_box(rng, 1000)
        mid = center((lower, upper))
        width = upper - lower + 1.0
        for corner in (lower, upper):
            inside_branch = np.abs(corner - mid) / width
            np.testing.assert_array_equal(
                piecewise_distance(corner, lower, upper), inside_branch
            )

    def test_outside_on_any_axis(self):
        dist = piecewise_distance(np.array([0.0, 2.0]), -np.ones(2), np.ones(2))
        assert dist[0] == 0.0
        assert dist[1] == pytest.approx(2.0 * 3.0 - 8.0 / 3.0, abs=1e-12)


def test_piecewise_distance_broadcasts_over_batches():
    rng = np.random.default_rng(8)
    lower = rng.uniform(-2, 0, (5, 3))
    upper = lower + rng.uniform(0, 3, (5, 3))
    points = rng.uniform(-4, 4, (5, 3))
    batched = piecewise_distance(points, lower, upper)
    for i in range(5):
        np.testing.assert_array_equal(
            batched[i], piecewise_distance(points[i], lower[i], upper[i])
        )
