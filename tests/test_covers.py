from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.covers as covers_module
from covergames.covers import (
    Ball,
    Box,
    CoClosedBalls,
    Cover,
    CoverSeq,
    DisjointFamily,
    containers,
    contains,
    covers_check,
    lebesgue_argmax_regions,
    lebesgue_number,
    pairwise_disjoint_check,
    region_mask,
    region_members,
)
from covergames.exact import CheckFailure, InputError
from covergames.screenability import _pointwise_family, brick_refinement
from covergames.space import (
    SampledSpace,
    build_cantor_space,
    build_grid_space,
)
from oracles import analytic_gap_ge, box_family


def brute_membership(region, space):
    """Independent point-by-point membership oracle on exact Fractions."""
    out = []
    for idx, p in enumerate(space.points):
        if isinstance(region, Ball):
            c = space.points[region.center]
            if space.metric_kind == "chebyshev":
                d = max(abs(a - b) for a, b in zip(p, c))
                out.append(d < region.radius)
            else:
                dsq = sum((a - b) ** 2 for a, b in zip(p, c))
                out.append(dsq < region.radius**2)
        elif isinstance(region, Box):
            ok = True
            for i in range(space.coord_dim):
                lo_ok = p[i] >= region.lo[i] if region.lo_closed[i] else p[i] > region.lo[i]
                hi_ok = p[i] <= region.hi[i] if region.hi_closed[i] else p[i] < region.hi[i]
                ok = ok and lo_ok and hi_ok
            out.append(ok)
        else:
            ok = True
            for c, r in region.balls:
                cp = space.points[c]
                if space.metric_kind == "chebyshev":
                    d = max(abs(a - b) for a, b in zip(p, cp))
                    inside = d <= r
                else:
                    inside = sum((a - b) ** 2 for a, b in zip(p, cp)) <= r * r
                ok = ok and not inside
            out.append(ok)
    return np.array(out)


class TestContains:
    def test_ball_strict_boundary(self, interval_8):
        s = interval_8
        b = Ball(s, 0, F(1, 4))
        assert contains(b, s.index_of((F(1, 8),)))
        assert not contains(b, s.index_of((F(1, 4),)))

    def test_complement_closed_boundary(self, interval_8):
        s = interval_8
        co = CoClosedBalls(s, ((0, F(1, 4)),))
        assert not contains(co, s.index_of((F(1, 4),)))
        assert contains(co, s.index_of((F(3, 8),)))

    def test_box_members_exhaustive(self):
        s = build_grid_space(1, F(1, 4))
        box = Box(s, (F(1, 4),), (F(3, 4),))
        members = [s.points[i][0] for i in np.flatnonzero(region_mask(box))]
        assert members == [F(1, 2)]

    @pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
    def test_masks_match_brute_force(self, metric):
        s = build_grid_space(2, F(1, 8), metric)
        regions = [
            Ball(s, 40, F(3, 16)),
            Box(s, (F(1, 8), F(1, 4)), (F(5, 8), F(7, 8))),
            CoClosedBalls(s, ((0, F(1, 2)), (80, F(1, 4)))),
        ]
        for r in regions:
            assert np.array_equal(region_mask(r), brute_membership(r, s))

    def test_closed_end_only_at_boundary(self, interval_8):
        with pytest.raises(InputError):
            Box(interval_8, (F(1, 4),), (F(3, 4),), lo_closed=(True,))


class TestRegionIdentity:
    SHAPES = {
        "ball": lambda s: Ball(s, 3, F(1, 4)),
        "box": lambda s: Box(s, (F(1, 16),), (F(5, 16),)),
        "co_closed_balls": lambda s: CoClosedBalls(s, ((3, F(1, 4)), (8, F(1, 8)))),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equal_values_on_one_space(self, interval_8, shape):
        make = self.SHAPES[shape]
        a, b = make(interval_8), make(interval_8)
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_spaces_compare_by_identity(self, interval_8, shape):
        s = interval_8
        twin = SampledSpace(s.points, s.metric_kind, s.mesh)
        make = self.SHAPES[shape]
        assert make(s) != make(twin)

    def test_shapes_never_equal(self, interval_8):
        s = interval_8
        regions = [make(s) for make in self.SHAPES.values()]
        for a, b in itertools.combinations(regions, 2):
            assert a != b and b != a
        assert Box(s, (F(1, 16),), (F(5, 16),)) == Box(
            s, (F(1, 16),), (F(5, 16),), (False,), (False,)
        )

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_hash_is_computed_on_each_use(self, interval_8, shape):
        r = self.SHAPES[shape](interval_8)
        assert hash(r) == hash(r) and "_hash" not in r.__dict__


class TestCoversCheck:
    def test_single_big_ball(self, interval_8):
        cover = Cover(interval_8, [Ball(interval_8, 4, F(2))])
        rep = covers_check(cover)
        assert rep.ok and set(rep.assignment) == {0}

    def test_gap_reported(self, interval_8):
        # oracle: membership scan; first uncovered is 1/4, and 1/2 is also
        # uncovered (the radius-1/4 balls at the endpoints miss [1/4, 3/4])
        s = interval_8
        cover = Cover(s, [Ball(s, 0, F(1, 4)), Ball(s, 8, F(1, 4))])
        rep = covers_check(cover)
        assert not rep.ok
        assert rep.failure_point == s.index_of((F(1, 4),))
        assert s.index_of((F(1, 2),)) in rep.uncovered

    def test_assignment_matches_masks(self, square_8):
        s = square_8
        cover = Cover(s, [Ball(s, 0, F(2)), Ball(s, 40, F(1, 2))])
        rep = covers_check(cover)
        assert rep.ok
        for p, ridx in enumerate(rep.assignment):
            assert region_mask(cover.regions[ridx])[p]


class TestRefines:
    def test_identity_witness(self, interval_8):
        s = interval_8
        boxes = [
            Box(s, (F(-1, 16),), (F(3, 8),)),
            Box(s, (F(5, 8),), (F(17, 16),)),
            Box(s, (F(1, 4),), (F(3, 4),)),
        ]
        found = containers(box_family(s, boxes), Cover(s, boxes))
        assert found == [(0, "analytic"), (1, "analytic"), (2, "analytic")]

    def test_cover_with_no_regions(self, interval_8):
        # no coarse region to compare with: no box finds one, and a family
        # has no parent index to name
        s = interval_8
        empty = Cover(s, [])
        fam = box_family(s, [Box(s, (F(1, 32),), (F(1, 16),)), Box(s, (F(0),), (F(1),))])
        assert containers(fam, empty) == [None, None]
        with pytest.raises(InputError, match="one parent index"):
            DisjointFamily(fam.take([1]), empty, witness=[0])

    def test_analytic_box_in_ball(self, square_8):
        s = square_8
        center = s.index_of((F(1, 2), F(1, 2)))
        fam = box_family(s, [Box(s, (F(3, 8), F(3, 8)), (F(5, 8), F(5, 8)))])
        wide, narrow = Ball(s, center, F(1, 2)), Ball(s, center, F(1, 8))
        assert containers(fam, Cover(s, [wide]), sample=False) == [(0, "analytic")]
        assert containers(fam, Cover(s, [narrow]), sample=False) == [None]

    def test_analytic_implies_sample(self, square_8):
        s = square_8
        center = s.index_of((F(1, 2), F(1, 2)))
        inner = Box(s, (F(3, 8), F(3, 8)), (F(5, 8), F(5, 8)))
        fam = box_family(s, [inner])
        for outer in (
            Ball(s, center, F(1, 2)),
            Box(s, (F(1, 8), F(1, 8)), (F(7, 8), F(7, 8))),
            CoClosedBalls(s, ((0, F(1, 8)),)),
        ):
            if containers(fam, Cover(s, [outer]), sample=False)[0]:
                assert np.isin(region_members(inner), region_members(outer)).all()


class TestDisjoint:
    def test_singleton(self, interval_8):
        fam = box_family(interval_8, [Box(interval_8, (F(-1, 4),), (F(1, 4),))])
        assert pairwise_disjoint_check(fam, F(1, 4)).ok

    def test_overlapping_boxes(self, interval_64):
        # oracle: membership scan finds the shared point 1/2
        s = interval_64
        b1 = Box(s, (F(-1, 64),), (F(3, 5),))
        b2 = Box(s, (F(2, 5),), (F(65, 64),))
        rep = pairwise_disjoint_check(box_family(s, [b1, b2]), F(0))
        assert not rep.ok
        assert rep.violating_pair == (0, 1)
        assert rep.reason == "shared_point"
        p = rep.witness_point
        assert region_mask(b1)[p] and region_mask(b2)[p]

    def test_gap_below_margin(self, interval_64):
        s = interval_64
        b1 = Box(s, (F(-1, 64),), (F(1, 4),))
        b2 = Box(s, (F(1, 4) + F(1, 256),), (F(65, 64),))
        fam = box_family(s, [b1, b2])
        # no shared sample point, analytic gap 1/256 < margin 1/64
        rep = pairwise_disjoint_check(fam, F(1, 64))
        assert not rep.ok and rep.reason == "gap_below_margin"
        assert pairwise_disjoint_check(fam, F(1, 256)).ok

    def test_margin_zero_touching_open_boxes(self, interval_64):
        s = interval_64
        mid = F(1, 2) + F(1, 128)  # between sample points
        b1 = Box(s, (-F(1, 64),), (mid,))
        b2 = Box(s, (mid,), (F(65, 64),))
        rep = pairwise_disjoint_check(box_family(s, [b1, b2]), F(0))
        assert rep.ok

    @given(
        c1=st.integers(min_value=0, max_value=8),
        c2=st.integers(min_value=0, max_value=8),
        r1=st.fractions(min_value="1/16", max_value="1/2"),
        r2=st.fractions(min_value="1/16", max_value="1/2"),
    )
    @settings(max_examples=120, deadline=None)
    def test_analytic_gap_soundness(self, interval_8, c1, c2, r1, r2):
        # a certified nonnegative analytic gap implies open disjointness,
        # hence no shared sample point
        s = interval_8
        boxes = [Box(s, (F(c, 8) - r,), (F(c, 8) + r,)) for c, r in ((c1, r1), (c2, r2))]
        if covers_module._family_gap_ge(box_family(s, boxes), 0, 1, F(0)):
            assert not bool(np.any(region_mask(boxes[0]) & region_mask(boxes[1])))

    def test_prefilter_matches_bruteforce(self):
        # large family of thin boxes: the pruned path must agree with the
        # unpruned exact path
        s = build_grid_space(1, F(1, 128))
        boxes = [
            Box(s, (F(k, 128) - F(1, 512),), (F(k, 128) + F(1, 512),))
            for k in range(0, 129)
        ]
        rep = pairwise_disjoint_check(box_family(s, boxes), s.mesh)
        assert rep.ok
        # brute force on a subsample of pairs
        for i, j in itertools.islice(itertools.combinations(range(129), 2), 300):
            assert analytic_gap_ge(boxes[i], boxes[j], s.mesh)


class TestOracleAgreement:
    """covers_check / containers vs independent point-by-point scans."""

    def _random_regions(self, s, rng, count):
        out = []
        for _ in range(count):
            kind = rng.randrange(3)
            if kind == 0:
                out.append(Ball(s, rng.randrange(s.n), F(rng.randrange(1, 9), 16)))
            elif kind == 1:
                a, b = sorted(rng.sample(range(1, 16), 2))
                out.append(Box(s, (F(a, 16),), (F(b, 16),)))
            else:
                out.append(
                    CoClosedBalls(
                        s, ((rng.randrange(s.n), F(rng.randrange(1, 5), 16)),)
                    )
                )
        return out

    def test_covers_check_agrees_with_scan(self, interval_64):
        import random

        s = interval_64
        rng = random.Random(9)
        for _ in range(20):
            regions = self._random_regions(s, rng, 4)
            cover = Cover(s, regions)
            rep = covers_check(cover)
            oracle = np.zeros(s.n, dtype=bool)
            for r in regions:
                oracle |= brute_membership(r, s)
            assert rep.ok == bool(oracle.all())
            if not rep.ok:
                assert not oracle[rep.failure_point]
                assert rep.failure_point == int(np.flatnonzero(~oracle)[0])

    def test_containers_agree_with_scan(self, interval_64):
        import random

        s = interval_64
        rng = random.Random(10)
        for _ in range(20):
            coarse = Cover(s, self._random_regions(s, rng, 3))
            fine = []
            for _ in range(2):
                a, b = sorted(rng.sample(range(1, 16), 2))
                fine.append(Box(s, (F(a, 16),), (F(b, 16),)))
            found = containers(box_family(s, fine), coarse)
            oracle = all(
                any(
                    bool(
                        np.all(
                            brute_membership(c, s)[brute_membership(f, s)]
                        )
                    )
                    for c in coarse.regions
                )
                for f in fine
            )
            assert (None not in found) == oracle


class TestLebesgue:
    def test_single_ball_cover(self, interval_8):
        s = interval_8
        cover = Cover(s, [Ball(s, 4, F(3, 4))])
        lam = lebesgue_number(cover)
        # oracle: min over p of (r - d(c, p)) = 3/4 - 1/2 = 1/4
        assert lam == F(1, 4)

    def test_crossing_boxes_value(self, interval_64):
        # oracle: exhaustive min-max scan gives 1/10 (attained near 1/2)
        s = interval_64
        cover = Cover(
            s,
            [
                Box(s, (F(0),), (F(3, 5),), lo_closed=(True,)),
                Box(s, (F(2, 5),), (F(1),), hi_closed=(True,)),
            ],
        )
        assert lebesgue_number(cover) == F(1, 10)

    def test_refining_guarantee_bruteforce(self, interval_64):
        s = interval_64
        cover = Cover(
            s,
            [
                Box(s, (F(0),), (F(3, 5),), lo_closed=(True,)),
                Box(s, (F(2, 5),), (F(1),), hi_closed=(True,)),
            ],
        )
        lam = lebesgue_number(cover)
        masks = [region_mask(r) for r in cover.regions]
        for p in range(s.n):
            ball = brute_membership(Ball(s, p, lam), s)
            assert any(bool(np.all(m[ball])) for m in masks)
            half = brute_membership(Ball(s, p, lam / 2), s)
            assert any(bool(np.all(m[half])) for m in masks)

    def test_argmax_region_certifies(self, interval_64):
        s = interval_64
        cover = Cover(
            s,
            [
                Box(s, (F(0),), (F(3, 5),), lo_closed=(True,)),
                Box(s, (F(2, 5),), (F(1),), hi_closed=(True,)),
            ],
        )
        lam = lebesgue_number(cover)
        points = np.array([0, 32, 64])
        found = lebesgue_argmax_regions(cover, points, lam)
        for p, ridx in zip(points.tolist(), found.tolist()):
            ball = brute_membership(Ball(s, p, lam), s)
            assert bool(np.all(region_mask(cover.regions[ridx])[ball]))

    def test_invalid_cover_rejected(self, interval_8):
        s = interval_8
        with pytest.raises(CheckFailure):
            lebesgue_number(Cover(s, [Ball(s, 0, F(1, 8))]))

    def test_positive_on_square_ball_cover(self, square_8):
        s = square_8
        cover = Cover(s, [Ball(s, s.index_of((F(1, 2), F(1, 2))), F(2))])
        assert lebesgue_number(cover) > 0

    def test_tolerance_floor_fails_instead_of_looping(self, interval_8, monkeypatch):
        s = interval_8
        tols = []

        def no_radius(region, p, tol):
            tols.append(tol)
            if len(tols) > 1000:
                raise RuntimeError("the sqrt tolerance refinement has no floor")
            return F(0)

        monkeypatch.setattr(covers_module, "_containment_radius_lb", no_radius)
        with pytest.raises(CheckFailure):
            lebesgue_number(Cover(s, [Ball(s, 4, F(3, 4))]))
        assert min(tols) == s.mesh / 2**400
        tols.clear()
        with pytest.raises(CheckFailure):
            cover = Cover(s, [Ball(s, 4, F(3, 4))])
            lebesgue_argmax_regions(cover, np.array([0]), F(1, 4))
        assert min(tols) == s.mesh / 2**400


class TestDisjointFamily:
    def test_rejects_overlap(self, interval_64):
        s = interval_64
        parent = Cover(s, [Ball(s, 32, F(2))])
        boxes = [Box(s, (F(0),), (F(1, 2),)), Box(s, (F(3, 8),), (F(5, 8),))]
        with pytest.raises(CheckFailure, match="not pairwise disjoint"):
            DisjointFamily(box_family(s, boxes), parent, witness=[0, 0])

    def test_accepts_separated(self, interval_64):
        s = interval_64
        parent = Cover(s, [Ball(s, 32, F(2))])
        boxes = [Box(s, (F(1, 16),), (F(3, 16),)), Box(s, (F(13, 16),), (F(15, 16),))]
        fam = DisjointFamily(box_family(s, boxes), parent, witness=[0, 0])
        assert fam.witness == (0, 0)

    def test_rejects_non_refining(self, interval_64):
        s = interval_64
        parent = Cover(s, [Ball(s, 0, F(1, 8))])
        boxes = [Box(s, (F(13, 16),), (F(15, 16),))]
        with pytest.raises(CheckFailure, match="does not hold"):
            DisjointFamily(box_family(s, boxes), parent, witness=[0])

    def test_given_witness_must_match_the_family(self, interval_64):
        s = interval_64
        cover = Cover(s, [Ball(s, 32, F(1, 8)), Ball(s, 8, F(1, 8))])
        inside = Box(s, (F(1, 16),), (F(3, 16),))
        outside = Box(s, (F(13, 16),), (F(15, 16),))
        fam = box_family(s, [inside, outside])
        with pytest.raises(CheckFailure, match="does not hold"):
            DisjointFamily(fam, cover, witness=[1, 1])
        assert DisjointFamily(fam.take([0]), cover, witness=[1]).witness == (1,)
        # too short, too long, negative (the last region holds inside), past the cover
        for keep, witness in (
            ([0, 1], [1]),
            ([0], [1, 0]),
            ([0], [-1]),
            ([0], [2]),
        ):
            with pytest.raises(InputError, match="one parent index"):
                DisjointFamily(fam.take(keep), cover, witness=witness)

    @pytest.mark.parametrize("seed", range(3))
    def test_subfamily_matches_a_fresh_family(self, square_8, seed):
        s = square_8
        rng = random.Random(seed)
        cover = Cover(
            s,
            [Ball(s, c, F(rng.randint(3, 8), 8)) for c in rng.sample(range(s.n), 6)]
            + [Box(s, (F(-1), F(-1)), (F(2), F(2)))],
        )
        # the 3 x 3 middle points, in the middle ball on the sample only
        wide = box_family(s, [Box(s, (F(9, 32), F(9, 32)), (F(23, 32), F(23, 32)))])
        middle = s.index_of((F(1, 2), F(1, 2)))
        families = list(brick_refinement(s, cover)) + [
            _pointwise_family(s, cover, lebesgue_number(cover)),
            DisjointFamily(wide, Cover(s, [Ball(s, middle, F(1, 4))]), witness=[0]),
        ]
        for fam in families:
            for size in (0, 1, len(fam) // 2, len(fam)):
                keep = rng.sample(range(len(fam)), size)
                sub = fam.subfamily(keep)
                fresh = DisjointFamily(
                    box_family(s, [fam.regions[i] for i in keep]),
                    fam.parent,
                    witness=[fam.witness[i] for i in keep],
                )
                assert sub.parent is fresh.parent and sub.space is fresh.space
                assert sub.regions == fresh.regions
                assert sub.witness == fresh.witness
                assert sub.witness_kinds == fresh.witness_kinds
                # the first holding parents, checked again as a new witness
                own = containers(sub.family, fam.parent)
                again = fam.subfamily(keep, witness=[hit[0] for hit in own])
                assert list(zip(again.witness, again.witness_kinds)) == own
        assert families[-1].witness_kinds == ("sample",)
        with pytest.raises(AssertionError, match="repeat or leave"):
            families[0].subfamily([0, 0])
        with pytest.raises(AssertionError, match="repeat or leave"):
            families[0].subfamily([len(families[0])])
        parent = Cover(s, [Ball(s, middle, F(1, 8)), cover.regions[-1]])
        fam = DisjointFamily(wide, parent, witness=[1])
        with pytest.raises(CheckFailure, match="does not hold"):
            fam.subfamily([0], witness=[0])


class TestCoverSeq:
    def test_one_based_access(self, interval_8):
        s = interval_8
        c1 = Cover(s, [Ball(s, 4, F(2))])
        c2 = Cover(s, [Ball(s, 0, F(2))])
        seq = CoverSeq(s, [c1, c2])
        assert seq.cover(1) is c1 and seq.cover(2) is c2
        with pytest.raises(InputError):
            seq.cover(0)
        seq.validate()
