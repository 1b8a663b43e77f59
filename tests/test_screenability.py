from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covergames import screenability
from covergames.covers import (
    Ball,
    Box,
    Cover,
    CoverSeq,
    lebesgue_number,
    region_mask,
    union_mask,
)
from covergames.exact import InputError
from covergames.game import strategy_F_move
from covergames.registry import builtin_names, builtin_space
from covergames.screenability import (
    FiniteCWitness,
    NoWitnessAtHorizon,
    ResolutionError,
    _block,
    _candidates,
    _cantor_level_boxes,
    _cantor_level_family,
    _cell_multiple,
    brick_refinement,
    build_brick_grid,
    finite_c_search,
    sc_fin_select,
)
from covergames.space import CantorStructure, build_cantor_space, build_grid_space
import oracles
from oracles import pairwise_disjoint_check, refines_oracle


def crossing_cover(s):
    return Cover(
        s,
        [
            Box(s, (F(0),), (F(3, 5),), lo_closed=(True,)),
            Box(s, (F(2, 5),), (F(1),), hi_closed=(True,)),
        ],
    )


def random_interval_cover(s, rng, pieces=5, min_overlap=F(1, 16)):
    """Seeded random interval covers of [0,1] with generous overlaps."""
    cuts = sorted(rng.randrange(1, 63) for _ in range(pieces - 1))
    cuts = [F(0)] + [F(c, 64) for c in cuts] + [F(1)]
    regions = []
    for i in range(pieces):
        lo = max(F(0), cuts[i] - min_overlap)
        hi = min(F(1), cuts[i + 1] + min_overlap)
        regions.append(
            Box(
                s,
                (lo,),
                (hi,),
                lo_closed=(lo == 0,),
                hi_closed=(hi == 1,),
            )
        )
    return Cover(s, regions)


def random_box_cover_2d(s, rng, min_overlap=F(1, 8)):
    regions = []
    for i in range(2):
        for j in range(2):
            lo = (max(F(0), F(i, 2) - min_overlap), max(F(0), F(j, 2) - min_overlap))
            hi = (min(F(1), F(i + 1, 2) + min_overlap), min(F(1), F(j + 1, 2) + min_overlap))
            jitter = F(rng.randrange(0, 4), 64)
            hi = (min(F(1), hi[0] + jitter), min(F(1), hi[1] + jitter))
            regions.append(
                Box(
                    s,
                    lo,
                    hi,
                    lo_closed=(lo[0] == 0, lo[1] == 0),
                    hi_closed=(hi[0] == 1, hi[1] == 1),
                )
            )
    return Cover(s, regions)


def assert_valid_refinement(space, cover, families):
    """The three oracle checks the families must pass."""
    union = np.zeros(space.n, dtype=bool)
    for fam in families:
        dis = pairwise_disjoint_check(fam.regions, space.mesh)
        assert dis.ok, dis
        assert refines_oracle(fam.regions, cover)[0]
        union |= fam.union_mask()
    assert union.all()


class TestBrickGrid:
    def test_faces_avoid_sample(self, interval_64):
        s = interval_64
        for cls in build_brick_grid(s, F(3, 64)):
            for box in cls.boxes():
                for p in s.points:
                    assert p[0] != box.lo[0] and p[0] != box.hi[0]

    def test_classes_partition_sample(self, interval_64):
        s = interval_64
        counts = np.zeros(s.n, dtype=int)
        for cls in build_brick_grid(s, F(2, 64)):
            for box in cls.boxes():
                counts += region_mask(box)
        # d+1 = 2 classes on an interval; every point in >= 1 class
        assert (counts >= 1).all()

    def test_trivial_cover_two_alternating_classes(self, interval_64):
        s = interval_64
        cover = Cover(s, [Ball(s, 32, F(2))])
        families = brick_refinement(s, cover)
        assert len(families) == 2
        assert_valid_refinement(s, cover, families)

    def test_crossing_cover_refined(self, interval_64):
        s = interval_64
        cover = crossing_cover(s)
        families = brick_refinement(s, cover)
        assert len(families) == 2
        assert_valid_refinement(s, cover, families)
        # lambda = 1/10 so cell sides sit below 1/20
        assert _cell_multiple(s, F(1, 20)) == 3  # side 3/64

    def test_square_three_families(self, square_8):
        s = square_8
        cover = Cover(s, [Ball(s, s.index_of((F(1, 2), F(1, 2))), F(2))])
        families = brick_refinement(s, cover)
        assert len(families) == 3
        assert_valid_refinement(s, cover, families)

    def test_resolution_error(self, interval_8):
        s = interval_8
        # a cover validated but with tiny lebesgue number: balls of radius
        # just over the grid spacing around every point
        cover = Cover(s, [Ball(s, c, F(9, 64)) for c in range(s.n)])
        with pytest.raises(ResolutionError):
            brick_refinement(s, cover)

    def test_determinism(self, interval_64):
        s = interval_64
        cover = crossing_cover(s)
        a = brick_refinement(s, cover)
        b = brick_refinement(s, cover)
        assert [f.regions for f in a] == [f.regions for f in b]

    def test_cantor_single_class(self, cantor_5):
        s = cantor_5
        cover = Cover(s, [Ball(s, 0, F(2))])
        families = brick_refinement(s, cover)
        assert len(families) == 1
        assert_valid_refinement(s, cover, families)

    def test_2adic_metric_rejected(self):
        from covergames.space import build_cantor_2adic_space

        s = build_cantor_2adic_space(3)
        cover = Cover(s, [Ball(s, 0, F(2))])
        with pytest.raises(InputError):
            brick_refinement(s, cover)

    def test_monotone_finer_cover_still_witnesses_coarse(self, interval_64):
        # families built against a finer cover also refine a coarser one
        s = interval_64
        coarse = Cover(s, [Ball(s, 32, F(2))])
        fine = crossing_cover(s)
        families = brick_refinement(s, fine)
        for fam in families:
            assert refines_oracle(fam.regions, coarse)[0]


class TestScFinSelect:
    def test_trivial_two_stage(self, interval_64):
        s = interval_64
        trivial = Cover(s, [Ball(s, 32, F(2))])
        sel = sc_fin_select(s, CoverSeq(s, [trivial, trivial]))
        assert len(sel.families) == 2
        union = np.zeros(s.n, dtype=bool)
        for fam in sel.families:
            union |= fam.union_mask()
        assert union.all()

    def test_alternating_covers(self, interval_64):
        s = interval_64
        rng = random.Random(5)
        covers = CoverSeq(
            s,
            [
                crossing_cover(s),
                Cover(s, [Ball(s, c, F(3, 10)) for c in (8, 32, 56)]),
                crossing_cover(s),
                Cover(s, [Ball(s, c, F(3, 10)) for c in (8, 32, 56)]),
            ],
        )
        sel = sc_fin_select(s, covers)
        for n, fam in enumerate(sel.families, start=1):
            assert pairwise_disjoint_check(fam.regions, s.mesh).ok
            assert refines_oracle(fam.regions, covers.cover(n))[0]
        # per-block coverage, stronger than required
        for lo in sel.block_starts:
            hi = min(lo + s.screen_dim, covers.horizon)
            union = np.zeros(s.n, dtype=bool)
            for n in range(lo, hi + 1):
                union |= sel.families[n - 1].union_mask()
            if hi - lo + 1 == s.screen_dim + 1:
                assert union.all()

    def test_covering_witness_aligned(self, interval_64):
        s = interval_64
        trivial = Cover(s, [Ball(s, 32, F(2))])
        sel = sc_fin_select(s, CoverSeq(s, [trivial, trivial]))
        for p, (n, ridx) in enumerate(sel.covering_witness):
            assert region_mask(sel.families[n - 1].regions[ridx])[p]

    def test_horizon_too_short(self, square_8):
        s = square_8
        cover = Cover(s, [Ball(s, 0, F(3))])
        with pytest.raises(InputError):
            sc_fin_select(s, CoverSeq(s, [cover, cover]))  # needs d+1 = 3

    def test_pointwise_fallback_only_when_allowed(self, interval_8):
        # the fallback belongs to the game: sc_fin_select refuses the block,
        # ONE's move hands it point-isolating boxes, and the refusal stands
        # once the fallback block is kept on the sequence
        s = interval_8
        cover = Cover(s, [Ball(s, c, F(9, 64)) for c in range(s.n)])
        seq = CoverSeq(s, [cover, cover])
        with pytest.raises(ResolutionError, match="insufficient for block 1..2"):
            sc_fin_select(s, seq)
        move = strategy_F_move(s, seq, 1)
        assert [len(fam) for fam in move] == [s.n, 0]
        assert move[0].union_mask().all()
        assert _block(seq, 1, allow_pointwise=True) == (move, True)
        with pytest.raises(ResolutionError):
            sc_fin_select(s, seq)


class TestFiniteC:
    def test_trivial_covers_answer_two(self, interval_64):
        s = interval_64
        trivial = Cover(s, [Ball(s, 32, F(2))])
        res = finite_c_search(s, CoverSeq(s, [trivial] * 3))
        assert isinstance(res, FiniteCWitness) and res.n == 2

    def test_interval_answer_two(self, interval_64):
        s = interval_64
        rng = random.Random(17)
        covers = CoverSeq(s, [random_interval_cover(s, rng) for _ in range(4)])
        res = finite_c_search(s, covers)
        assert isinstance(res, FiniteCWitness) and res.n == 2

    def test_square_answer_three(self):
        # the 2d brick demands need cell sides below lambda/4, so the test
        # runs at the resolution where quadrant covers leave room
        s = build_grid_space(2, F(1, 64))
        rng = random.Random(23)
        covers = CoverSeq(s, [random_box_cover_2d(s, rng) for _ in range(4)])
        res = finite_c_search(s, covers)
        assert isinstance(res, FiniteCWitness) and res.n == 3
        # n = 2 genuinely fails: the default construction on the prefix
        # leaves a concrete point uncovered
        fams, fallback = _block(CoverSeq(s, covers.covers[:2]), 1)
        assert len(fams) == 2 and not fallback
        union = np.zeros(s.n, dtype=bool)
        for fam in fams:
            union |= fam.union_mask()
        assert not union.all()
        uncovered = int(np.flatnonzero(~union)[0])
        assert 0 <= uncovered < s.n

    def test_cantor_answer_one(self, cantor_5):
        s = cantor_5
        cover = Cover(s, [Ball(s, 0, F(2))])
        res = finite_c_search(s, CoverSeq(s, [cover, cover]))
        assert isinstance(res, FiniteCWitness) and res.n == 1

    def test_crossing_horizon_one_no_witness(self, interval_64):
        s = interval_64
        res = finite_c_search(s, CoverSeq(s, [crossing_cover(s)]))
        assert isinstance(res, NoWitnessAtHorizon)
        assert res.candidates_refuted > 0
        # every refutation names an uncovered point
        for label, point in res.refutations:
            assert 0 <= point < s.n



# -- the refutation prefilter against the scan that tested every candidate ---------


def slab_cover(s, cuts, overlap):
    """Boxes spanning every axis but the first, cut on the first axis at the
    given points and widened by overlap on both sides."""
    d = s.coord_dim
    ends = [F(0), *sorted(set(cuts)), F(1)]
    rest = (F(0),) * (d - 1), (F(1),) * (d - 1), (True,) * (d - 1)
    regions = []
    for a, b in zip(ends, ends[1:]):
        lo, hi = max(F(0), a - overlap), min(F(1), b + overlap)
        regions.append(
            Box(
                s,
                (lo, *rest[0]),
                (hi, *rest[1]),
                lo_closed=(lo == 0, *rest[2]),
                hi_closed=(hi == 1, *rest[2]),
            )
        )
    return Cover(s, regions)


def finite_c_space(kind, fine):
    if kind == "line":
        return build_grid_space(1, F(1, 16 * 2**fine))
    if kind == "square":
        return build_grid_space(2, F(1, 4 * 2**fine))
    return build_cantor_space(2 + fine)


@st.composite
def finite_c_cases(draw):
    """A 1-D or 2-D grid or a Cantor sample and 1-4 covers: balls of one
    radius at every point, or slabs cut at multiples of the grid spacing
    (of 1/27 on Cantor samples) and widened by a quarter of it or more."""
    kind = draw(st.sampled_from(["line", "square", "cantor"]))
    s = finite_c_space(kind, draw(st.integers(0, 1)))
    steps = 27 if kind == "cantor" else int(1 / s.structure.h)
    covers = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            r = draw(st.sampled_from([F(2), F(1, 2), F(1, 4), F(1, 9)]))
            covers.append(Cover(s, [Ball(s, p, r) for p in range(s.n)]))
        else:
            cuts = draw(st.lists(st.integers(1, steps - 1), max_size=3))
            overlap = draw(st.sampled_from([F(1, 4), F(1), F(3), F(steps, 5)])) / steps
            covers.append(slab_cover(s, [F(c, steps) for c in cuts], overlap))
    return s, CoverSeq(s, covers)


def finite_c_value(res):
    """A search answer with each family as its box ends, members, witness
    and parent, so equal values mean equal reports."""
    if isinstance(res, NoWitnessAtHorizon):
        return res
    return res.n, [
        (
            fam.family.den,
            fam.family.lo.tolist(),
            fam.family.hi.tolist(),
            fam.family.indices.tolist(),
            list(fam.witness),
            fam.parent,
        )
        for fam in res.families
    ]


def assert_search_matches_oracle(s, covers):
    got = finite_c_search(s, covers)
    with mock.patch.object(screenability, "_scan_candidates", oracles._scan_candidates):
        want = finite_c_search(s, covers)
    assert finite_c_value(got) == finite_c_value(want)
    return got


@pytest.mark.parametrize(
    "kind, make, answer",
    [
        ("cantor", lambda s: [Cover(s, [Ball(s, p, F(1, 9)) for p in range(s.n)])], 1),
        ("square", lambda s: [Cover(s, [Ball(s, 0, F(2))])] * 2, 1),
        ("line", lambda s: [slab_cover(s, [F(1, 2)], F(1, 32))] * 3, 2),
        ("square", lambda s: [slab_cover(s, [F(1, 2)], F(3, 8))] * 3, 3),
        ("line", lambda s: [slab_cover(s, [F(1, 2)], F(1, 10))], None),
        ("square", lambda s: [slab_cover(s, [F(1, 4)], F(1, 32))] * 2, None),
    ],
    ids=["cantor-1", "square-1", "line-2", "square-3", "line-none", "square-none"],
)
def test_finite_c_search_matches_the_full_scan(kind, make, answer):
    s = finite_c_space(kind, 1)
    res = assert_search_matches_oracle(s, CoverSeq(s, make(s)))
    assert getattr(res, "n", None) == answer
    if answer is None:  # refuted at every horizon, past the kept refutations
        assert res.candidates_refuted > len(res.refutations) == 64


@settings(max_examples=100, deadline=None)
@given(finite_c_cases(), st.integers(0, 70))
def test_scan_matches_the_full_scan(case, recorded):
    """Every prefix's scan, with some refutations already recorded, finds
    the same families after the same number of candidates and keeps the
    same first 64 refutations; the whole search gives the same answer."""
    s, covers = case
    assert_search_matches_oracle(s, covers)
    for n in range(1, covers.horizon + 1):
        prefix = CoverSeq(s, covers.covers[:n])
        answers = []
        for scan in (screenability._scan_candidates, oracles._scan_candidates):
            refutations = [("recorded", 0)] * recorded
            found, tried = scan(s, prefix, refutations)
            found = None if found is None else finite_c_value(FiniteCWitness(n, found))
            answers.append((found, tried, refutations[:64]))
        assert answers[0] == answers[1]


@pytest.mark.parametrize(
    "dim, den", [(1, 2), (1, 3), (1, 7), (1, 16), (2, 2), (2, 3), (2, 8), (3, 2), (3, 3), (3, 4)]
)
def test_residue_rule_matches_the_point_cell_table(dim, den):
    """Every candidate's misses flag, at every side up to past the sample's
    width (where fewer than d+1 cells, and so some residues, remain on an
    axis) and every n in 1..d+2, is the point-cell table's answer; the
    sides are the whole-h sides below the extent."""
    s = build_grid_space(dim, F(1, den))
    period = dim + 1
    extent = F(den + 3, den)  # sides h .. (den + 2) * h
    sides = oracles.admissible_cell_sides(s, extent)
    assert _cell_multiple(s, extent) == len(sides) == den + 2
    for below in (F(1, 3 * den), s.structure.h, F(5, 2 * den)):
        assert _cell_multiple(s, below) == len(oracles.admissible_cell_sides(s, below))
    flags = set()
    for n in range(1, dim + 3):
        got = [misses for misses, _ in _candidates(s, extent, n)]
        want = [
            oracles.classes_miss_a_point(s, m, [(c + rot) % period for c in range(period)], n)
            for m in range(1, len(sides) + 1)
            for rot in range(period)
        ]
        assert got == want, n
        flags.update(want)
    assert flags == {False, True}


def cantor_level_boxes_loop(space, level, gamma):
    """Reference grouping: floor(c * 3**level) per point, in Fraction
    arithmetic."""
    groups = {}
    for (coord,) in space.points:
        key = (coord.numerator * 3**level) // coord.denominator
        groups.setdefault(key, []).append(coord)
    return [
        Box(space, (min(g) - gamma,), (max(g) + gamma,))
        for _, g in sorted(groups.items())
    ]


CANTOR_NAMES = [
    n for n in builtin_names() if isinstance(builtin_space(n).structure, CantorStructure)
]


@pytest.mark.parametrize("name", CANTOR_NAMES)
def test_cantor_level_boxes_match_the_fraction_grouping(name):
    space = builtin_space(name)
    for level in range(space.structure.depth + 2):
        for gamma in (F(1, 4 * 3**level), F(1, 7 * 3**level)):
            want = cantor_level_boxes_loop(space, level, gamma)
            assert list(_cantor_level_boxes(space, level, gamma).boxes()) == want
    # each level is grouped once and kept on the space
    assert sorted(space._cantor_levels) == list(range(space.structure.depth + 2))


def test_cantor_level_groups_past_int64():
    # 27 * 3**40 overflows int64: the keys are taken in Python ints, and at
    # this level every point is its own group
    space = builtin_space("cantor_3")
    gamma = F(1, 3**42)
    boxes = _cantor_level_boxes(space, 40, gamma).boxes()
    assert list(boxes) == cantor_level_boxes_loop(space, 40, gamma)
    assert len(boxes) == space.n


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(1, 10),
    a=st.integers(1, 30),
    b=st.integers(0, 30),
    k=st.integers(0, 14),
)
def test_cantor_level_family_is_built_at_every_positive_lebesgue_number(depth, a, b, k):
    # any positive lambda up to the cover's Lebesgue number, from past the
    # sample's diameter down to below its spacing, finds a level
    space = build_cantor_space(depth)
    cover = Cover(space, [Ball(space, 0, F(4))])
    lam = lebesgue_number(cover) * F(a, a + b) / 3**k
    family = _cantor_level_family(space, cover, lam)
    level = len(family).bit_length() - 1
    assert len(family) == 2**level and 0 <= level <= depth
    assert family.parent is cover and family.witness == (0,) * len(family)
    assert union_mask(space, family.regions).all()
    column = sorted(p for (p,) in space.points)
    for box in family.regions:  # inside the Lebesgue ball of its leftmost point
        assert box.hi[0] - column[bisect_right(column, box.lo[0])] < lam
