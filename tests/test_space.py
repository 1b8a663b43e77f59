from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covergames.exact import InputError, ResourceError, exact_sqrt
from covergames.space import (
    build_cantor_2adic_space,
    build_cantor_space,
    build_grid_space,
    detect_structure,
    diameter,
    doubling_delta,
    epsilon_schedule,
    paired_delta,
)


def triangle_holds(space, i, j, k) -> bool:
    """Independent oracle: d(i,k) <= d(i,j) + d(j,k), decided exactly on
    squared distances: a <= b + c + 2*sqrt(bc)."""
    a = space.distance_sq(i, k)
    b = space.distance_sq(i, j)
    c = space.distance_sq(j, k)
    lhs = a - b - c
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * b * c


class TestGridBuilder:
    def test_smallest_grid(self):
        s = build_grid_space(1, F(1, 2))
        assert [p[0] for p in s.points] == [0, F(1, 2), 1]
        assert s.mesh == F(1, 4)

    def test_square_grid(self):
        s = build_grid_space(2, F(1, 4), "chebyshev")
        assert s.n == 25
        assert s.mesh == F(1, 8)

    def test_fine_grid_nearest_neighbor_gap(self):
        # oracle: exhaustive nearest-neighbor scan
        s = build_grid_space(1, F(1, 1024))
        assert s.n == 1025
        worst = F(0)
        for i in range(s.n):
            row = s.dist_sq_row(i)
            nn = min(int(v) for j, v in enumerate(row) if j != i)
            worst = max(worst, F(nn, s.dist_scale_sq))
        assert exact_sqrt(worst) == F(1, 1024)

    def test_preconditions(self):
        with pytest.raises(InputError):
            build_grid_space(1, F(2, 3))  # 1/h not integral
        with pytest.raises(InputError):
            build_grid_space(1, F(3, 4))  # h > 1/2
        with pytest.raises(InputError):
            build_grid_space(4, F(1, 4))
        with pytest.raises(ResourceError):
            build_grid_space(3, F(1, 512), point_cap=10000)

    def test_grid_mesh_covers_probe_points(self):
        # random analytic points of the cube sit within mesh of the sample
        s = build_grid_space(2, F(1, 8))
        rng = random.Random(7)
        for _ in range(50):
            probe = (F(rng.randrange(0, 257), 256), F(rng.randrange(0, 257), 256))
            best = None
            for p in s.points:
                dsq = sum((a - b) ** 2 for a, b in zip(probe, p))
                best = dsq if best is None else min(best, dsq)
            assert best <= s.mesh**2


class TestCantorBuilder:
    def test_depth_1(self):
        s = build_cantor_space(1)
        assert [p[0] for p in s.points] == [0, F(2, 3)]

    def test_depth_2(self):
        s = build_cantor_space(2)
        assert [p[0] for p in s.points] == [0, F(2, 9), F(2, 3), F(8, 9)]

    def test_depth_10_min_distance(self):
        # oracle: exhaustive pairwise scan
        s = build_cantor_space(10)
        assert s.n == 1024
        best = None
        for i in range(s.n):
            row = s.dist_sq_row(i)
            pos = [int(v) for j, v in enumerate(row) if j != i]
            m = min(pos)
            best = m if best is None else min(best, m)
        assert exact_sqrt(F(best, s.dist_scale_sq)) == F(2, 3**10)

    def test_depth_cap(self):
        with pytest.raises(ResourceError):
            build_cantor_space(17)


class TestMetricAxioms:
    @pytest.mark.parametrize(
        "space_builder",
        [
            lambda: build_grid_space(1, F(1, 8)),
            lambda: build_grid_space(2, F(1, 4)),
            lambda: build_grid_space(2, F(1, 4), "chebyshev"),
            lambda: build_cantor_space(4),
            lambda: build_cantor_2adic_space(4),
        ],
    )
    def test_axioms_exhaustive(self, space_builder):
        s = space_builder()
        for i in range(s.n):
            assert s.distance_sq(i, i) == 0
        for i, j in itertools.combinations(range(s.n), 2):
            dsq = s.distance_sq(i, j)
            assert dsq > 0
            assert dsq == s.distance_sq(j, i)
        for i, j, k in itertools.combinations(range(s.n), 3):
            assert triangle_holds(s, i, j, k)

    def test_2adic_is_ultrametric(self):
        s = build_cantor_2adic_space(5)
        rng = random.Random(3)
        for _ in range(2000):
            i, j, k = (rng.randrange(s.n) for _ in range(3))
            a = s.distance_sq(i, k)
            assert a <= max(s.distance_sq(i, j), s.distance_sq(j, k))


class TestDiameter:
    def test_singleton(self, interval_8):
        d = diameter(interval_8, interval_8.subset_from_indices([3]))
        assert d.value == 0 and not d.empty

    def test_endpoints(self, interval_8):
        d = diameter(interval_8, interval_8.subset_all())
        assert d.value == 1 and d.exact

    def test_cantor_left_half(self):
        # oracle: exhaustive pairwise scan over the left-half subset
        s = build_cantor_space(2)
        left = s.subset_from_indices([0, 1])  # {0, 2/9}
        assert diameter(s, left).value == F(2, 9)

    def test_empty_flag(self, interval_8):
        d = diameter(interval_8, interval_8.subset_from_indices([]))
        assert d.empty and d.value == 0


class TestSubsets:
    def test_bitset_round_trip(self, interval_8):
        h = interval_8.subset_from_indices([0, 3, 8])
        assert h.indices() == (0, 3, 8)
        assert h.count() == 3

    def test_subset_relations(self, interval_8):
        a = interval_8.subset_from_indices([1, 2])
        b = interval_8.subset_from_indices([1, 2, 5])
        assert a.issubset(b) and not b.issubset(a)

    @pytest.mark.parametrize("index", [True, False])
    def test_boolean_indices_rejected(self, interval_8, index):
        # numpy reads mask[True] = True as "set every entry"
        with pytest.raises(InputError, match="boolean"):
            interval_8.subset_from_indices([index])
        with pytest.raises(InputError, match="boolean"):
            interval_8.subset_from_indices([2, index])


class TestSchedules:
    def test_doubling_values(self):
        values = [doubling_delta(n) for n in range(1, 5)]
        assert values == [F(1, 4), F(1, 16), F(1, 256), F(1, 65536)]

    def test_doubling_squares(self):
        # (1/2)^(2^(n+1)) = ((1/2)^(2^n))^2
        for n in range(1, 8):
            assert doubling_delta(n + 1) == doubling_delta(n) ** 2

    def test_paired_formula_spot_values(self):
        assert paired_delta(F(1), 1) == F(3, 8)
        assert paired_delta(F(1, 4), 2) == F(15, 128)

    def test_paired_schedule_pairs(self):
        eps = epsilon_schedule([1, F(1, 4), F(1, 16)])
        assert paired_delta(eps.value(1), 1) == F(3, 8)
        for n in range(1, 4):
            assert paired_delta(eps.value(n), n) < eps.value(n) / 2

    @given(st.lists(st.fractions(min_value="1/1000", max_value=4), min_size=1, max_size=6))
    def test_epsilon_schedule_accepts_positive(self, vals):
        s = epsilon_schedule(vals)
        assert s.horizon == len(vals)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            epsilon_schedule([F(1, 2), F(0)])


class TestStructureDetection:
    def test_grid_detected(self):
        s = build_grid_space(2, F(1, 4))
        det = detect_structure(s.points)
        assert det is not None and det.dim == 2 and det.h == F(1, 4)

    def test_cantor_detected(self):
        s = build_cantor_space(3)
        det = detect_structure(s.points)
        assert det is not None and det.depth == 3

    def test_generic_not_detected(self):
        assert detect_structure(((F(0),), (F(1, 3),), (F(1),))) is None
