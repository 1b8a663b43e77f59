"""Differential tests of the region layer against the dense and per-point
code it replaced.

Region members have one builder, `covers._make_members`: a batch of
regions takes one `SampledSpace.balls` call per ball radius, one
`SampledSpace.box` call per box and one `ball_union` per radius of a
closed-ball complement, and `region_members`, `contains` (a search in the
members), `union_mask` and `covers_check` read its rows.
`SampledSpace.ball_union` finds the points near a set of centers on a
cell grid (and `validate_net` takes one union per radius), and the
Lebesgue functions send only the entries their float table cannot settle
to the exact code, once per distinct integer key; the table's ball
entries get their float bounds in one pass.  The oracles are the earlier
bodies: a dense O(n) mask per region and the one-ball window query
(`tests/oracles.py`), the union of the balls' masks, the full cover check
of a net, and the exact per-point Lebesgue loops, over every point and
over the float table (`tests/oracles.py`).  Each answer must be
identical, down to the Fraction and the region index.
"""

from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.covers as covers_module
import covergames.space as space_module
from covergames import haver
from covergames.cli import run
from covergames.covers import (
    Ball,
    Box,
    CoClosedBalls,
    Cover,
    containers,
    contains,
    covers_check,
    lebesgue_argmax_regions,
    lebesgue_number,
    pairwise_disjoint_check,
    region_mask,
    region_members,
    union_mask,
)
from covergames.exact import CheckFailure, exact_sqrt, sqrt_bounds
from covergames.netting import NetCertificate, decompose_from_hurewicz, greedy_net
from covergames.netting import validate_net
from covergames.registry import builtin_space
from covergames.screenability import _pointwise_family
from covergames.space import (
    SampledSpace,
    build_cantor_2adic_space,
    build_grid_space,
    doubling_delta,
)
from oracles import (
    _ball_oracle,
    argmax_loop,
    argmax_oracle,
    box_family,
    cantor_points,
    containers_oracle,
    lebesgue_loop,
    lebesgue_oracle,
    mask_oracle,
    window_ball,
)

# -- oracles ------------------------------------------------------------------------


def net_oracle(space, cert: NetCertificate) -> bool:
    """Whether the centers' balls cover the certificate's subset."""
    covered = np.zeros(space.n, dtype=bool)
    for c in cert.centers:
        covered |= mask_oracle(Ball(space, c, cert.epsilon))
    return bool(covered[cert.covered.mask()].all())


# -- spaces and regions -------------------------------------------------------------

SPACE = Path(__file__).parent / "golden" / "inputs" / "space.json"  # 0, 1/8, ..., 1
HUGE = F(2**40)  # scaled coordinates this far apart overflow int64 distances


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from(["int64", "object", "cantor_2adic"]))
    metric = draw(st.sampled_from(["euclidean", "chebyshev"]))
    if kind == "cantor_2adic":
        pool = cantor_points(4)
        pts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
        return SampledSpace(pts, "cantor_2adic", F(1, 16))
    dim = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 2, 3, 7]))
    coord = st.integers(-6, 6).map(lambda k: F(k, den))
    pts = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=24, unique=True)
    )
    if kind == "object":
        far = (F(100),) * dim  # keeps the span wide however few points are drawn
        pts = [tuple(c * HUGE for c in p) for p in pts + [far]]
        space = SampledSpace(pts, metric, HUGE / 4)
        assert not space._fast
        return space
    return SampledSpace(pts, metric, F(1, 4))


def _radius(draw, space, center):
    """A radius that often equals a sample distance exactly."""
    q = draw(st.integers(0, space.n - 1))
    root = exact_sqrt(space.distance_sq(center, q))
    choices = [F(draw(st.integers(1, 30)), draw(st.sampled_from([1, 2, 4, 7])))]
    if root is not None and root > 0:
        choices.append(root)
    r = draw(st.sampled_from(choices))
    if space.metric_kind != "cantor_2adic" and not space._fast:
        r *= HUGE if r is choices[0] else 1
    return r


@st.composite
def regions(draw, space):
    shape = draw(st.sampled_from(["ball", "box", "co"]))
    if shape == "ball":
        c = draw(st.integers(0, space.n - 1))
        return Ball(space, c, _radius(draw, space, c))
    if shape == "co":
        centers = draw(st.lists(st.integers(0, space.n - 1), min_size=0, max_size=3))
        return CoClosedBalls(space, tuple((c, _radius(draw, space, c)) for c in centers))
    lo, hi, lo_closed, hi_closed = [], [], [], []
    # half the boxes lie off the sample on one axis, at most touching its edge
    side = draw(st.sampled_from([0, 0, -1, 1]))
    off_axis = draw(st.integers(0, space.coord_dim - 1))
    for i in range(space.coord_dim):
        values = sorted({p[i] for p in space.points})
        a, b = sorted(draw(st.lists(st.sampled_from(values), min_size=2, max_size=2)))
        nudge = draw(st.sampled_from([F(0), F(1, 5), -F(1, 5)])) * (b - a + 1)
        a, b = a - abs(nudge), b + nudge
        if a >= b:
            b = a + 1
        if side and i == off_axis:
            gap = draw(st.sampled_from([F(0), F(1, 2)]))
            if side < 0:
                shift = space.axis_min[i] - b - gap
            else:
                shift = space.axis_max[i] - a + gap
            a, b = a + shift, b + shift
        # a closed end must not cut the sample: put it at the sample's edge
        lc = draw(st.booleans())
        hc = draw(st.booleans())
        lo.append(min(a, space.axis_min[i]) if lc else a)
        hi.append(max(b, space.axis_max[i]) if hc else b)
        lo_closed.append(lc)
        hi_closed.append(hc)
    return Box(space, tuple(lo), tuple(hi), tuple(lo_closed), tuple(hi_closed))


def _shrunk(region):
    """A region inside the given one: half the radius, the middle half of
    every axis, or closed balls of twice the radius."""
    space = region.space
    if isinstance(region, Ball):
        return Ball(space, region.center, region.radius / 2)
    if isinstance(region, Box):
        quarter = [(b - a) / 4 for a, b in zip(region.lo, region.hi)]
        return Box(
            space,
            tuple(a + q for a, q in zip(region.lo, quarter)),
            tuple(b - q for b, q in zip(region.hi, quarter)),
        )
    return CoClosedBalls(space, tuple((c, 2 * r) for c, r in region.balls))


# -- membership ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_members_mask_and_contains_match_the_dense_oracle(data):
    space = data.draw(spaces())
    for _ in range(4):
        region = data.draw(regions(space))
        want = mask_oracle(region)
        for _ in range(2):  # a cache miss, then a hit
            members = region_members(region)
            assert members.dtype == np.int32
            assert np.array_equal(members, np.flatnonzero(want))
            assert np.array_equal(region_mask(region), want)
        assert [contains(region, p) for p in range(space.n)] == want.tolist()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_space_queries_match_dense_membership(data):
    # near, the one-ball oracle and box against a per-point test of every
    # sample point
    space = data.draw(spaces())
    table = space._icoords.tolist()
    for _ in range(4):
        c, q = data.draw(st.tuples(*[st.integers(0, space.n - 1)] * 2))
        at = int(space.distance_sq(c, q) * space.dist_scale_sq)
        bound = data.draw(st.sampled_from([at, max(at - 1, 0), at + 1]))
        want = [
            p for p in range(space.n)
            if space.distance_sq(c, p) * space.dist_scale_sq <= bound
        ]
        ball, near = window_ball(space, c, bound), space.near(c, bound)
        assert ball.dtype == near.dtype == np.int32
        assert ball.tolist() == want
        assert set(want) <= set(near.tolist())
        if space.metric_kind == "cantor_2adic":  # one range of sorted bits
            assert sorted(near.tolist()) == want
        bounds = []
        for k in range(space.coord_dim):
            values = sorted({row[k] for row in table})
            ends = [values[0] - 1, *values, values[-1] + 1]  # below and above
            pair = data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2))
            bounds.append(tuple(sorted(pair)))
        want = [
            p for p in range(space.n)
            if all(gt < x <= le for x, (gt, le) in zip(table[p], bounds))
        ]
        box = space.box(bounds)
        assert box.dtype == np.int32 and box.tolist() == want


def _union_oracle(space, centers, radius, closed):
    """The union of the centers' dense ball masks."""
    out = np.zeros(space.n, dtype=bool)
    for c in centers:
        out |= _ball_oracle(space, c, radius, closed)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ball_union_matches_the_per_ball_union(data):
    space = data.draw(spaces())
    point = st.integers(0, space.n - 1)
    centers = data.draw(st.lists(point, max_size=6))
    centers += data.draw(st.lists(st.sampled_from(centers), max_size=2)) if centers else []
    c = centers[0] if centers else 0
    gap = space.min_positive_gap_sq()
    radii = [
        _radius(data.draw, space, c),  # often a sample distance
        F(1, 2**70),  # bound 0
        min(gap, F(1)) / 2,  # below the minimum gap
        F(2**80),  # past every distance: the clamped int64 maximum
    ]
    if exact_sqrt(gap) is not None:
        radii.append(exact_sqrt(gap))
    radius = data.draw(st.sampled_from(radii))
    closed = data.draw(st.booleans())
    bound = space.scaled_bound(radius, closed)
    got = space.ball_union(centers, bound)
    assert got.dtype == bool and got.shape == (space.n,)
    assert np.array_equal(got, _union_oracle(space, centers, radius, closed))
    assert np.array_equal(
        union_mask(space, [Ball(space, c, radius) for c in centers]),
        _union_oracle(space, centers, radius, False),
    )


@pytest.mark.parametrize("chunk", [1, 7, space_module.PAIR_CHUNK])
@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("dim,den", [(1, 16), (2, 8), (3, 4)])
def test_ball_union_at_every_bound_with_centers_on_cell_borders(
    monkeypatch, dim, den, metric, chunk
):
    # every scaled bound up to past the diameter; the centers are points on
    # the borders of the fine and the coarse cells of that bound, or one
    # step inside: a few alone, given twice, and a third of them at once;
    # the coarse pass takes its pairs a few at a time, or all at once
    monkeypatch.setattr(space_module, "PAIR_CHUNK", chunk)
    s = build_grid_space(dim, F(1, den), metric)
    table = s._icoords
    top = int(max(s.dist_sq_row(0))) + 2
    for bound in range(top):
        per_axis = bound if metric == "chebyshev" else bound // dim
        sides = {isqrt(per_axis) + 1, isqrt(bound) + 1}
        edge = np.zeros(s.n, dtype=bool)
        for side in sides:
            edge |= np.asarray(np.isin(table % side, [0, side - 1]).all(axis=1))
        border = np.flatnonzero(edge).tolist()
        for centers in [[c, c] for c in border[:: len(border) // 4 + 1]] + [border[::3]]:
            want = np.zeros(s.n, dtype=bool)
            for c in centers:
                want |= s.dist_sq_row(c) <= bound
            assert np.array_equal(s.ball_union(centers, bound), want), (bound, centers)
    assert not s.ball_union([], top).any()


def test_ball_union_at_bound_zero_is_its_centers(monkeypatch):
    # a radius below the scale's resolution, as at the demo's doubling radii:
    # the fine cells have side 1, and the fine pass is the whole answer
    space = build_grid_space(2, F(1, 64))
    pairs = _count_calls(monkeypatch, SampledSpace, "_pair_dist_sq")
    radius = F(1, 2**16)
    assert space.scaled_bound(radius) == 0
    for centers in (range(0, space.n, 7), [5], range(space.n)):
        want = _union_oracle(space, centers, radius, False)
        assert np.array_equal(space.ball_union(centers, 0), want)
        assert np.flatnonzero(want).tolist() == sorted(set(centers))
    assert pairs == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_balls_match_the_per_ball_members(data):
    space = data.draw(spaces())
    centers = data.draw(st.lists(st.integers(0, space.n - 1), max_size=6))
    c = centers[0] if centers else 0
    radius = data.draw(st.sampled_from([_radius(data.draw, space, c), F(1, 2**70), F(2**80)]))
    bound = space.scaled_bound(radius, data.draw(st.booleans()))
    chunk = data.draw(st.sampled_from([1, 5, space_module.PAIR_CHUNK]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "PAIR_CHUNK", chunk)
        indptr, indices = space.balls(centers, bound)
    assert indptr[0] == 0 and len(indptr) == len(centers) + 1
    got = [indices[a:b].tolist() for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    assert got == [window_ball(space, c, bound).tolist() for c in centers]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_boxes_match_the_per_box_query(data):
    space = data.draw(spaces())
    table = space._icoords.tolist()
    ends = []
    for k in range(space.coord_dim):
        values = sorted({row[k] for row in table})
        ends.append([values[0] - 1, *values, values[-1] + 1])  # below and above
    boxes = [
        [tuple(sorted(data.draw(st.lists(st.sampled_from(e), min_size=2, max_size=2))))
         for e in ends]
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    shape = (len(boxes), space.coord_dim)
    gt = np.array([[b[0] for b in box] for box in boxes], dtype=np.int64).reshape(shape)
    le = np.array([[b[1] for b in box] for box in boxes], dtype=np.int64).reshape(shape)
    chunk = data.draw(st.sampled_from([1, 5, space_module.PAIR_CHUNK]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "PAIR_CHUNK", chunk)
        indptr, indices = space.boxes(gt, le)
    got = [indices[a:b].tolist() for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    assert got == [space.box(box).tolist() for box in boxes]


def test_ball_union_of_every_square_point_needs_no_pair(monkeypatch):
    # validate_net's epsilon-1/2 certificate over the 4,225 centers of the
    # demo's finest selections: the fine cells settle every point
    space = builtin_space("unit_square_64")
    pairs = _count_calls(monkeypatch, SampledSpace, "_pair_dist_sq")
    rows = _count_calls(monkeypatch, SampledSpace, "_dist_sq_to")
    assert space.ball_union(range(space.n), space.scaled_bound(F(1, 2))).all()
    assert pairs == [] and rows == []


def test_ball_radius_equal_to_a_sample_distance_is_open():
    s = build_grid_space(2, F(1, 4))  # 3-4-5: distance 5/4 is a sample distance
    ball = Ball(s, s.index_of((F(0), F(0))), F(5, 4))
    far = s.index_of((F(3, 4), F(1)))
    assert not contains(ball, far)
    assert far not in region_members(ball).tolist()
    co = CoClosedBalls(s, ((ball.center, F(5, 4)),))
    assert not contains(co, far)
    assert np.array_equal(region_members(co), np.flatnonzero(mask_oracle(co)))


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2])
def test_co_ball_windows_reach_the_closed_boundary(dim, metric):
    # every rational sample distance as a closed radius at every center: the
    # points at both ends of a ball's first-axis window lie on its boundary
    s = build_grid_space(dim, F(1, 4), metric)
    for c in range(s.n):
        radii = {exact_sqrt(s.distance_sq(c, q)) for q in range(s.n)} - {None, 0}
        for r in sorted(radii):
            co = CoClosedBalls(s, ((c, r),))
            assert np.array_equal(region_members(co), np.flatnonzero(mask_oracle(co)))


@pytest.mark.parametrize(
    "lo,hi",
    [
        (F(-1), F(-1, 2)),  # wholly below the sample
        (F(-1), F(0)),  # open upper end at the lowest point
        (F(3, 2), F(2)),  # wholly above
        (F(1), F(2)),  # open lower end at the highest point
    ],
    ids=["below", "touching_below", "above", "touching_above"],
)
@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
def test_box_off_the_sample_has_no_members(metric, lo, hi):
    s = SampledSpace([(F(k, 8),) for k in range(9)], metric, F(1, 16))
    box = Box(s, (lo,), (hi,))
    assert not mask_oracle(box).any()
    assert region_members(box).size == 0
    assert not region_mask(box).any()
    assert not any(contains(box, p) for p in range(s.n))


def test_cover_missing_the_lowest_point_fails_its_checks():
    s = build_grid_space(1, F(1, 8))
    below = Box(s, (F(-1),), (F(-1, 2),))
    rest = Box(s, (F(1, 16),), (F(2),))
    report = covers_check(Cover(s, [below, rest]))
    assert not report.ok and report.failure_point == 0
    assert union_mask(s, [below, rest]).tolist() == [False] + [True] * (s.n - 1)
    assert pairwise_disjoint_check(box_family(s, [below, rest]), F(0)).ok


def test_refine_on_a_cover_missing_the_lowest_point_exits_1(tmp_path):
    def box(lo, hi):
        return {"shape": "box", "lo": [lo], "hi": [hi]}

    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"regions": [box("-1", "-1/2"), box("1/16", "2")]}))
    code, doc = run(["refine", "--space", str(SPACE), "--cover", str(path)])
    assert code == 1
    assert doc["checks"][0] == {"name": "cover_validates", "pass": False}
    assert "first uncovered point 0" in doc["checks"][-1]["error"]


def test_members_are_computed_once_and_kept_on_the_region(monkeypatch):
    calls = _count_calls(monkeypatch, covers_module, "_make_members")
    balls = _count_calls(monkeypatch, SampledSpace, "balls")
    s = build_grid_space(2, F(1, 8))
    for region in (Ball(s, 3, F(1, 4)), Box(s, (F(0), F(0)), (F(1, 2), F(1, 2)))):
        first = region_members(region)
        assert region_members(region) is first
        assert not first.flags.writeable
        assert len(calls) == 1 and [r is region for r in calls.pop()[0]] == [True]
    # a cover's regions take one batch, and its balls of one radius one query
    r = F(3, 8)
    cover = Cover(s, [Ball(s, c, r) for c in range(0, s.n, 9)] + [CoClosedBalls(s, ((0, r),))])
    balls.clear()
    for _ in range(2):
        covers_check(cover)
    assert len(calls) == 1 and len(balls) == 1
    for region in cover.regions:
        members = region_members(region)
        assert not members.flags.writeable
        assert np.array_equal(members, np.flatnonzero(mask_oracle(region)))
    assert len(calls) == 1


def test_member_cache_does_not_keep_its_space_alive():
    gc.disable()
    try:
        s = build_grid_space(2, F(1, 8))
        ref = weakref.ref(s)
        region_members(Ball(s, 3, F(1, 4)))
        region_members(Box(s, (F(0), F(0)), (F(1, 2), F(1, 2))))
        del s
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_members_match_the_dense_oracle(data):
    # one batch of mixed regions: balls of one to three radii, some at one
    # center twice, boxes (closed ends at the sample's edge) and closed-ball
    # complements, in any order; each radius's balls take one query
    space = data.draw(spaces())
    point = st.integers(0, space.n - 1)
    radii = [_radius(data.draw, space, data.draw(point)) for _ in range(data.draw(st.integers(1, 3)))]
    centers = data.draw(st.lists(point, min_size=1, max_size=8))
    centers += data.draw(st.lists(st.sampled_from(centers), max_size=3))
    balls = [Ball(space, c, data.draw(st.sampled_from(radii))) for c in centers]
    mixed = data.draw(st.permutations(balls + data.draw(st.lists(regions(space), max_size=4))))
    chunk = data.draw(st.sampled_from([1, 5, space_module.PAIR_CHUNK]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "PAIR_CHUNK", chunk)
        queries = _count_calls(patch, SampledSpace, "balls")
        rows = covers_module._members(mixed)
    assert len(queries) == len({r.radius for r in mixed if isinstance(r, Ball)})
    for region, members in zip(mixed, rows):
        assert members.dtype == np.int32 and not members.flags.writeable
        assert np.array_equal(members, np.flatnonzero(mask_oracle(region)))
        assert region_members(region) is members


# -- containment --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_containers_match_the_old_loop(data):
    space = data.draw(spaces())
    coarse = Cover(space, data.draw(st.lists(regions(space), max_size=4)))
    inner = regions(space).filter(lambda r: isinstance(r, Box))
    if any(isinstance(r, Box) for r in coarse.regions):
        # copies and shrunk copies of coarse boxes contain
        taken = st.sampled_from([r for r in coarse.regions if isinstance(r, Box)])
        inner = st.one_of(inner, taken, taken.map(_shrunk))
    # the family's boxes are open
    fine = [Box(space, b.lo, b.hi) for b in data.draw(st.lists(inner, max_size=4))]
    fam = box_family(space, fine)
    assert containers(fam, coarse) == containers_oracle(fine, coarse)
    # candidate lists: the first holding candidate, analytic evidence first
    ks = st.integers(0, len(coarse.regions) - 1)
    cands = [data.draw(st.lists(ks, max_size=4)) if coarse.regions else [] for _ in fine]
    want = containers_oracle(fine, coarse, cands)
    assert containers(fam, coarse, cands) == want
    analytic = [w if w and w[1] == "analytic" else None for w in want]
    assert containers(fam, coarse, cands, sample=False) == analytic


# -- nets ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validate_net_matches_the_cover_check(data):
    space = data.draw(spaces())
    target = data.draw(st.lists(st.integers(0, space.n - 1), max_size=space.n))
    subset = space.subset_from_indices(target)
    eps = _radius(data.draw, space, 0)
    if subset.is_empty():
        centers = data.draw(st.lists(st.integers(0, space.n - 1), max_size=3))
    else:
        full = list(greedy_net(space, subset, eps).centers)
        # the greedy net passes; a prefix, a shuffle or stray centers may not
        centers = data.draw(
            st.one_of(
                st.just(full),
                st.integers(0, len(full)).map(lambda k: full[:k]),
                st.permutations(full),
                st.lists(st.integers(0, space.n - 1), max_size=4),
            )
        )
    cert = NetCertificate(eps, tuple(centers), subset)
    assert validate_net(space, cert) == net_oracle(space, cert)


# -- Lebesgue numbers ---------------------------------------------------------------


def _ball_cover(space, rng, count):
    """Open balls at random centers plus the complement of closed balls of
    half their radii: a cover with both ball and co-ball pieces.  Radii run
    from a sixteenth of the diameter to past the cap (diameter + 1) on the
    containment radius."""
    centers = rng.sample(range(space.n), count)
    diam = space.diameter_upper_bound()
    radii = [diam * F(rng.randint(1, 48), 16) for _ in centers]
    balls = [Ball(space, c, r) for c, r in zip(centers, radii)]
    co = CoClosedBalls(space, tuple((c, r / 2) for c, r in zip(centers, radii)))
    return Cover(space, balls + [co])


def _shared_radii_cover(space, rng):
    """Open balls of two or three shared radii at random centers, two of
    the centers taken twice, plus the complement of closed balls of half
    the least radius at three of them: each radius's balls are one batch
    of the member builder and of the Lebesgue table's ball bounds."""
    diam = space.diameter_upper_bound()
    radii = [diam * F(rng.randint(1, 24), 16) for _ in range(rng.randint(2, 3))]
    centers = rng.sample(range(space.n), 8)
    balls = [Ball(space, c, rng.choice(radii)) for c in centers + centers[:2]]
    co = CoClosedBalls(space, tuple((c, min(radii) / 2) for c in centers[:3]))
    return Cover(space, balls + [co])


def _box_cover(space, rng, cuts):
    """Overlapping boxes from random cuts per axis, open at every end."""
    axes = []
    for i in range(space.coord_dim):
        lo, hi = space.axis_min[i] - 1, space.axis_max[i] + 1
        inner = sorted(F(rng.randint(1, 63), 64) * (hi - lo) + lo for _ in range(cuts))
        edges = [lo] + inner + [hi]
        pad = F(1, rng.choice([7, 16, 40])) * (hi - lo) / (cuts + 1)
        axes.append([(a - pad, b + pad) for a, b in zip(edges, edges[1:])])
    boxes = []
    for choice in np.ndindex(*[len(a) for a in axes]):
        lo = tuple(axes[i][k][0] for i, k in enumerate(choice))
        hi = tuple(axes[i][k][1] for i, k in enumerate(choice))
        boxes.append(Box(space, lo, hi))
    rng.shuffle(boxes)
    return Cover(space, boxes)


def _object_space(metric="euclidean"):
    pts = [(F(i) * HUGE, F(j) * HUGE) for i in range(7) for j in range(5)]
    return SampledSpace(pts, metric, HUGE / 2)


LEBESGUE_SPACES = {
    "square_euclidean": lambda: build_grid_space(2, F(1, 16)),
    "square_chebyshev": lambda: build_grid_space(2, F(1, 16), "chebyshev"),
    "interval": lambda: build_grid_space(1, F(1, 64)),
    "cube": lambda: build_grid_space(3, F(1, 4)),
    "cantor_2adic": lambda: build_cantor_2adic_space(5),
    "object_table": _object_space,
    "object_table_chebyshev": lambda: _object_space("chebyshev"),
}


def _fresh(cover: Cover) -> Cover:
    return Cover(cover.space, cover.regions)


@pytest.mark.parametrize("name", sorted(LEBESGUE_SPACES))
@pytest.mark.parametrize("shape", ["balls", "shared_radii", "boxes"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lebesgue_number_and_argmax_match_the_per_point_loops(name, shape, seed):
    space = LEBESGUE_SPACES[name]()
    rng = random.Random(f"{name}-{shape}-{seed}")
    if shape == "balls":
        cover = _ball_cover(space, rng, rng.randint(1, 6))
    elif shape == "shared_radii":
        cover = _shared_radii_cover(space, rng)
    else:
        cover = _box_cover(space, rng, rng.randint(1, 3))
    assert covers_check(cover).ok
    lam = lebesgue_oracle(_fresh(cover))
    assert lebesgue_number(cover) == lam
    assert lebesgue_number(cover) is cover._lebesgue
    # argmax at lambda, below it, and at each bound at p itself, where a
    # region reaches the radius with equality
    masks = [mask_oracle(r) for r in cover.regions]
    tol = space.mesh / 2**20
    for p in range(space.n):
        bounds = [
            covers_module._containment_radius_lb(r, p, tol) for r in cover.regions
        ]
        radii = {lam, lam / 3} | {b for b in bounds if b is not None and b > 0}
        for radius in sorted(radii):
            want = argmax_oracle(cover, p, radius, masks, bounds)
            assert lebesgue_argmax_regions(cover, np.array([p]), radius).tolist() == [want]


@st.composite
def lebesgue_covers(draw):
    """Drawn balls, boxes and closed-ball complements, with a ball wider
    than the diameter when they leave a point uncovered (or when drawn): a
    ball of radius past twice the diameter plus one is capped at every
    point."""
    space = draw(spaces())
    picked = draw(st.lists(regions(space), max_size=4))
    if draw(st.booleans()) or not covers_check(Cover(space, picked)).ok:
        diam = space.diameter_upper_bound()
        radius = draw(st.sampled_from([diam + space.mesh, 2 * diam + 2]))
        wide = Ball(space, draw(st.integers(0, space.n - 1)), radius)
        picked.insert(draw(st.integers(0, len(picked))), wide)
    return Cover(space, picked)


def _assert_lebesgue_matches_the_loops(cover, points):
    """lebesgue_number against the dense oracle and the per-point table
    loop, and lebesgue_argmax_regions against the loop at the points: at
    lambda, a third of it, and each point's own exact bounds, where a region
    reaches the radius with equality."""
    space = cover.space
    lam = lebesgue_oracle(_fresh(cover))
    assert lebesgue_loop(_fresh(cover)) == lam
    assert lebesgue_number(cover) == lam
    held = np.array(points, dtype=np.int64)
    for radius in (lam, lam / 3):
        want = [argmax_loop(_fresh(cover), p, radius) for p in points]
        assert lebesgue_argmax_regions(cover, held, radius).tolist() == want
    tol = space.mesh / 2**20
    for p in points:
        bounds = {
            covers_module._containment_radius_lb(r, p, tol) for r in cover.regions
        } - {None}
        for radius in sorted(b for b in bounds if b > 0):
            want = argmax_loop(_fresh(cover), p, radius)
            got = lebesgue_argmax_regions(cover, np.array([p]), radius)
            assert got.tolist() == [want]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lebesgue_keys_match_the_per_point_loops(data):
    cover = data.draw(lebesgue_covers())
    n = cover.space.n
    points = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    _assert_lebesgue_matches_the_loops(cover, points)


def _lattice_cover(metric, radius, co):
    """Balls of one radius at every other point of the 9 x 9 grid, and
    optionally the complement of their closed balls of radius 1/16: every
    point ties with its mirror images."""
    space = build_grid_space(2, F(1, 8), metric)
    centers = [
        space.index_of((F(i, 4), F(j, 4))) for i in range(5) for j in range(5)
    ]
    regions = [Ball(space, c, radius) for c in centers]
    if co:
        regions.append(CoClosedBalls(space, tuple((c, F(1, 16)) for c in centers)))
    return Cover(space, regions)


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("radius", [F(3, 16), F(1, 4), F(5, 16)])
@pytest.mark.parametrize("co", [False, True])
def test_symmetric_grid_covers_share_their_exact_radii(monkeypatch, metric, radius, co):
    cover = _lattice_cover(metric, radius, co)
    assert covers_check(cover).ok
    calls = _count_calls(monkeypatch, covers_module._LebesgueTable, "radius_lb")
    lam = lebesgue_number(cover)
    # the open points tie at one distance to their nearest centers, which
    # gives every exact ball radius; a complement's key is a point's whole
    # tuple of distances to the 25 centers, shared only by mirror images
    assert 0 < len(calls) <= (64 if co else 1)
    monkeypatch.undo()
    assert lam == lebesgue_oracle(_fresh(cover)) == lebesgue_loop(_fresh(cover))
    _assert_lebesgue_matches_the_loops(cover, list(range(0, cover.space.n, 4)))


def test_an_all_capped_cover_takes_one_exact_radius(monkeypatch):
    space = build_grid_space(2, F(1, 16))
    diam = space.diameter_upper_bound()
    cover = Cover(
        space,
        [Ball(space, 7, 2 * diam + 1), CoClosedBalls(space, ((100, F(1, 5)),))],
    )
    calls = _count_calls(monkeypatch, covers_module._LebesgueTable, "radius_lb")
    exact = _count_calls(monkeypatch, covers_module, "_containment_radius_lb")
    assert lebesgue_number(cover) == diam + 1
    # every point ties at the cap: one key, and no containment radius
    assert len(calls) == 1 and exact == []
    monkeypatch.undo()
    assert lebesgue_loop(_fresh(cover)) == diam + 1


def _tight_corner_cover(gap_tol):
    """Balls at the corners (0, 0) and (1, 1) of the 9 x 9 grid whose radii
    exceed the irrational distance sqrt(2)/8 to their diagonal neighbours by
    at most gap_tol, and boxes that hold every other point, so that the two
    diagonal neighbours lie in their corner's ball alone.  Returns the cover
    and the two neighbours."""
    space = build_grid_space(2, F(1, 8))
    radius = sqrt_bounds(F(1, 32), gap_tol)[1]
    corners = [space.index_of((F(0), F(0))), space.index_of((F(1), F(1)))]
    boxes = [
        ((F(3, 16), F(-1)), (F(13, 16), F(2))),
        ((F(-1), F(3, 16)), (F(2), F(13, 16))),
        ((F(-1), F(11, 16)), (F(5, 16), F(2))),
        ((F(11, 16), F(-1)), (F(2), F(5, 16))),
    ]
    cover = Cover(
        space,
        [Ball(space, c, radius) for c in corners]
        + [Box(space, lo, hi) for lo, hi in boxes],
    )
    assert covers_check(cover).ok
    near = [space.index_of((F(1, 8), F(1, 8))), space.index_of((F(7, 8), F(7, 8)))]
    return cover, near


def test_an_irrational_distance_refines_the_tolerance():
    gap = F(1, 8) / 2**30
    cover, near = _tight_corner_cover(gap)
    space = cover.space
    base = space.mesh / 2**20
    # at the base tolerance the bound at each neighbour is not yet positive
    ball = cover.regions[0]
    assert covers_module._containment_radius_lb(ball, near[0], base) <= 0
    lam = lebesgue_number(cover)
    assert 0 < lam <= gap
    assert lam == lebesgue_oracle(_fresh(cover)) == lebesgue_loop(_fresh(cover))
    _assert_lebesgue_matches_the_loops(cover, list(range(space.n)))


def test_the_tolerance_floor_names_the_lowest_failing_point():
    cover, near = _tight_corner_cover(F(1, 8) / 2**500)
    with pytest.raises(CheckFailure) as loop:
        lebesgue_loop(_fresh(cover))
    with pytest.raises(CheckFailure) as keyed:
        lebesgue_number(cover)
    assert keyed.value.witness == loop.value.witness == min(near)
    # a lookup fails at the first of the given points that no region serves
    radius = F(1, 2**10)
    points = [max(near), 0, min(near)]
    with pytest.raises(CheckFailure) as loop:
        [argmax_loop(_fresh(cover), p, radius) for p in points]
    with pytest.raises(CheckFailure) as keyed:
        lebesgue_argmax_regions(cover, np.array(points), radius)
    assert keyed.value.witness == loop.value.witness == max(near)


# -- op-count gates -------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_lebesgue_number_reads_few_exact_radii_on_a_box_cover(monkeypatch, seed):
    space = build_grid_space(2, F(1, 64))
    cover = _box_cover(space, random.Random(seed), 1)
    assert len(cover.regions) == 4
    want = lebesgue_oracle(_fresh(cover))
    calls = _count_calls(monkeypatch, covers_module, "_containment_radius_lb")
    assert lebesgue_number(cover) == want
    # one exact radius per (sample point, containing region) would be > 4225
    assert 0 < len(calls) < 1000


# exact Lebesgue work in the demos: (label, horizon, most
# _LebesgueTable.radius_lb calls, most _containment_radius_lb calls).  A
# per-point loop made 8,517, 4,324 and 2,351 radius_lb calls, the interval's
# from 739 points that the argmax's float pass left open
DEMO_LEBESGUE_GATES = [
    ("unit_square_64", 6, 200, 59),
    ("unit_interval_1024", 12, 50, 2271),
    ("cantor_10", 12, 200, 301),
]


@pytest.mark.parametrize("label,horizon,keys,radii", DEMO_LEBESGUE_GATES)
def test_demo_decides_lebesgue_radii_once_per_key(
    monkeypatch, label, horizon, keys, radii
):
    calls = _count_calls(monkeypatch, covers_module._LebesgueTable, "radius_lb")
    exact = _count_calls(monkeypatch, covers_module, "_containment_radius_lb")
    code, doc = run(["demo", "--label", label, "--horizon", str(horizon)])
    assert code == 0, doc
    assert len(calls) <= keys, f"{len(calls)} exact evaluations"
    assert len(exact) <= radii, f"{len(exact)} containment radii"


def test_interval_demo_queries_ball_members_once_per_stage_cover(monkeypatch):
    # a stage cover's balls get their members from one batched query, its
    # Lebesgue table their float bounds from one pass, and Haver's filter
    # reads the same members: 779 single-ball queries, 779 per-ball bounds
    # and 11 batched queries (all in the filter) when each was its own
    batched = _count_calls(monkeypatch, SampledSpace, "balls")
    bounds = _count_calls(monkeypatch, covers_module, "_radius_bounds")
    filtering = []
    inner = haver._containing_balls

    def counted(*args):
        before = len(batched)
        out = inner(*args)
        filtering.append(len(batched) - before)
        return out

    monkeypatch.setattr(haver, "_containing_balls", counted)
    code, doc = run(["demo", "--label", "unit_interval_1024", "--horizon", "12"])
    assert code == 0, doc
    assert not [args for args in bounds if isinstance(args[0], Ball)]
    assert len(batched) <= 12
    assert len(filtering) == 12 and sum(filtering) == 0


def test_pointwise_family_reads_no_distance_row(monkeypatch):
    space = build_grid_space(2, F(1, 64))
    rng = random.Random(7)
    net = greedy_net(space, space.subset_all(), F(1, 4)).centers
    cover = Cover(
        space,
        [Ball(space, c, F(5, 16)) for c in net] + list(_box_cover(space, rng, 1).regions),
    )
    rows = _count_calls(monkeypatch, SampledSpace, "dist_sq_row")
    lam = lebesgue_number(cover)
    family = _pointwise_family(space, cover, lam)
    assert len(family) == space.n
    assert rows == []


def test_decompose_takes_one_union_per_selection_and_none_per_certificate(monkeypatch):
    space = build_grid_space(2, F(1, 16))
    horizon = 4
    selections = {}
    for m in range(1, horizon + 1):
        selections[m] = greedy_net(space, space.subset_all(), doubling_delta(m)).centers
    epsilons = [F(1, 2), F(1, 16)]
    unions = _count_calls(monkeypatch, SampledSpace, "ball_union")
    balls = _count_calls(monkeypatch, SampledSpace, "balls")
    rows = _count_calls(monkeypatch, SampledSpace, "dist_sq_row")
    dec = decompose_from_hurewicz(space, selections, horizon, epsilons)
    # one union per stage's selection and none per certificate, which the
    # union of its selection stage proves; no ball members and no distance row
    assert len(unions) == horizon and len(dec.certificates) == horizon * 2
    assert balls == [] and rows == []
    for cert in dec.certificates.values():
        assert net_oracle(space, cert)
    covered = [
        _union_oracle(space, selections[m], doubling_delta(m), False)
        for m in range(1, horizon + 1)
    ]
    for n in range(1, horizon + 1):  # stage n: the points in every union from n on
        assert np.array_equal(dec.stage(n).mask(), np.logical_and.reduce(covered[n - 1 :]))
