"""Differential tests of the disjoint-family geometry against the bodies it
replaced.

`build_brick_grid` lays a class out as the product of one axis's occupied
slots, `_pair_order` sweeps box families in the order of their lower ends
on axis 0, and `containers` settles box-in-ball containment with certified
floats (`_corner_verdicts`) before any exact test.  Block families are
`BoxFamily` integer arrays.  The oracles are the earlier bodies: the
per-point bucket layout (with its Fraction branch) here, and in
`oracles.py` the per-box float filter over every later box, the exact
corner test `analytic_contains` and the per-region containment and
disjointness checks, which every family's Box objects take.  Every layout,
report, witness and verdict must be identical.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.covers as covers_module
import covergames.space as space_module
from covergames import cli, game, haver, netting, screenability
from covergames.cli import run
from covergames.covers import (
    Ball,
    Box,
    CoClosedBalls,
    Cover,
    DisjointFamily,
    containers,
    lebesgue_argmax_regions,
    lebesgue_number,
    pairwise_disjoint_check,
    region_mask,
    region_members,
)
from covergames.exact import CheckFailure, InputError, exact_sqrt
from covergames.jsonio import space_from_json
from covergames.netting import greedy_net
from covergames.registry import builtin_names, builtin_space
from covergames.screenability import (
    _cantor_level_boxes,
    _point_boxes,
    _pointwise_family,
    build_brick_grid,
)
from covergames.space import (
    GridStructure,
    SampledSpace,
    build_cantor_space,
    build_grid_space,
)
from oracles import (
    _old_pair_order,
    analytic_contains,
    argmax_loop,
    box_family,
    containers_oracle,
    sweep_candidates,
    sweep_pair_order,
    window_boxes,
)
from oracles import pairwise_disjoint_check as disjoint_oracle

GOLDEN = Path(__file__).parent / "golden" / "inputs"

# -- oracles ------------------------------------------------------------------------


def _bucket_brick_grid(space, cell_side, fraction_branch=False):
    """The per-point bucket layout.  fraction_branch takes the path it used
    when the scale times the grid step was not 1; a grid sample has scale
    1/h, so only a forced call reaches it."""
    d, h = space.structure.dim, space.structure.h
    s = F(cell_side)
    m = int(s / h)
    origin = h / 2
    period = d + 1
    if space.scale * h == 1 and not fraction_branch:
        ik = np.asarray(space._icoords, dtype=np.int64)
        cells = (2 * ik - 1) // (2 * m)
    else:
        cells = np.array(
            [[(p[i] - origin) // s for i in range(d)] for p in space.points],
            dtype=np.int64,
        )
    classes = []
    for c in range(period):
        r = (cells - c) % period
        ok = (r != d).all(axis=1)
        z = (cells - c - r) // period
        buckets = {}
        for pidx in np.flatnonzero(ok):
            buckets.setdefault(tuple(int(v) for v in z[pidx]), None)
        boxes = []
        for zt in sorted(buckets):
            lo = tuple(origin + (zi * period + c) * s for zi in zt)
            hi = tuple(origin + (zi * period + c + d) * s for zi in zt)
            boxes.append(Box(space, lo, hi))
        classes.append(tuple(boxes))
    return tuple(classes)


def _old_containing_ball(region, cover, net, radius, space):
    """The per-region Haver filter: the first anchor-near net ball in order
    that analytic_contains accepts."""
    members = region_members(region)
    if not members.size:
        return None
    near = space._dist_sq_to(int(members[0]), np.asarray(net, dtype=np.int64))
    for bidx in np.flatnonzero(near <= space.scaled_bound(radius)).tolist():
        if analytic_contains(region, cover.regions[bidx]):
            return bidx
    return None


def family_ends(fam):
    """A box family's float ends: lower ends rounded down, upper ends up."""
    lo, hi = fam.float_bounds()
    return lo[..., 0], hi[..., 1]


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


# -- brick layout -------------------------------------------------------------------


def _boxes(classes):
    """A layout's classes as tuples of Box objects."""
    return tuple(cls.boxes() for cls in classes)


def _sides(n_steps: int) -> list[int]:
    """Cell sides in grid steps: every one on small grids, a spread on big."""
    if n_steps <= 64:
        return list(range(1, n_steps + 2))
    return [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, n_steps - 1, n_steps, n_steps + 1]


GRID_NAMES = [
    name for name in builtin_names() if name.startswith(("unit_interval", "unit_square"))
]


@pytest.mark.parametrize("name", GRID_NAMES)
def test_brick_layout_matches_buckets_on_builtin_grids(name):
    space = builtin_space(name)
    h = space.structure.h
    for m in _sides(int(1 / h)):
        want = _bucket_brick_grid(space, m * h)
        assert _boxes(build_brick_grid(space, m * h)) == want, m


def test_brick_layout_matches_buckets_on_the_file_grid():
    axis = [f"{k}/128" for k in range(129)]
    points = [[x, y] for x in axis for y in axis]
    space = space_from_json({"metric": "euclidean", "mesh": "3/512", "points": points})
    assert space.structure == GridStructure(2, F(1, 128))
    for m in _sides(128):
        side = F(m, 128)
        want = _bucket_brick_grid(space, side)
        assert _boxes(build_brick_grid(space, side)) == want, m


@pytest.mark.parametrize("dim,den", [(1, 8), (1, 64), (2, 8), (2, 16), (3, 4), (3, 8)])
def test_brick_layout_matches_the_fraction_branch(dim, den):
    metric = "chebyshev" if dim == 2 else "euclidean"
    space = build_grid_space(dim, F(1, den), metric_kind=metric)
    assert space.scale * space.structure.h == 1
    for m in _sides(den):
        want = _bucket_brick_grid(space, F(m, den), fraction_branch=True)
        assert _boxes(build_brick_grid(space, F(m, den))) == want, m


# -- pairwise disjointness ----------------------------------------------------------


def _planted_family(rng: random.Random, space, margin, fault: int):
    """Boxes inside distinct lattice cells of side w = margin * 5, each cell
    inside one sample cell (so the boxes hold no sample point), in shuffled
    index order.  Each side is shrunk by margin/2, the margin or w/4, so
    boxes in different cells keep at least the margin apart (exactly the
    margin at margin/2 on both sides).  Then the planted fault: none (0); a
    box's upper side left within margin/2 of its cell next to a neighbour
    (1: a gap below the margin, or touching); a box stretched into its
    neighbour's cell (2: an overlap); a box around a sample point held
    twice (3: a shared point)."""
    d = space.coord_dim
    w = margin * 5
    side = int(1 / w)
    cells = list(np.ndindex(*(side,) * d))
    rng.shuffle(cells)
    cells = cells[: rng.randint(2, min(150, len(cells)))]
    ax = rng.randrange(d)
    mine = rng.choice([c for c in cells if c[ax] < side - 1] or cells)
    above = tuple(x + (i == ax) for i, x in enumerate(mine))
    if fault in (1, 2) and mine[ax] < side - 1 and above not in cells:
        cells.insert(rng.randrange(len(cells) + 1), above)
    shrink = [margin / 2, margin, w / 4]
    boxes = []
    for cell in cells:
        lo = [x * w + rng.choice(shrink) for x in cell]
        hi = [(x + 1) * w - rng.choice(shrink) for x in cell]
        if cell == mine and fault == 1:
            hi[ax] = (cell[ax] + 1) * w - rng.choice([F(0), margin / 3])
        elif cell == mine and fault == 2:
            hi[ax] += w / 2
        boxes.append(Box(space, tuple(lo), tuple(hi)))
    if fault == 3:
        p = space.points[rng.randrange(space.n)]
        around = Box(space, tuple(x - w / 4 for x in p), tuple(x + w / 4 for x in p))
        boxes[cells.index(mine)] = around
        boxes.insert(rng.randrange(len(boxes) + 1), around)
    return boxes


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_disjoint_reports_match_all_pairs(dim, metric):
    space = build_grid_space(dim, F(1, 4), metric_kind=metric)
    # 128, 256 and 512 lattice cells, so families pass 64 boxes
    margin = F(1, 5 * 4 * {1: 32, 2: 4, 3: 2}[dim])
    reasons = set()
    for seed in range(24):
        rng = random.Random(f"{dim}:{metric}:{seed}")
        boxes = _planted_family(rng, space, margin, seed % 4)
        fam = box_family(space, boxes)
        want = _old_pair_order(*family_ends(fam), margin)
        assert covers_module._pair_order(fam, margin) == want
        got = pairwise_disjoint_check(fam, margin)
        assert got == disjoint_oracle(boxes, margin, all_pairs_up_to=10**9)
        reasons.add(got.reason)
    # the seeds reach every outcome
    assert reasons == {None, "analytic_overlap", "gap_below_margin", "shared_point"}


def test_pair_order_is_lexicographic():
    space = build_grid_space(2, F(1, 8))
    side = F(1, 20)
    boxes = [Box(space, (F(k, 16), F(0)), (F(k, 16) + side, side)) for k in range(10)]
    boxes.reverse()
    fam = box_family(space, boxes)
    pairs = covers_module._pair_order(fam, F(1, 64))
    assert pairs == sorted(pairs) == _old_pair_order(*family_ends(fam), F(1, 64))
    assert covers_module._pair_order(fam.take([0]), F(1, 64)) == []


def test_pair_order_batches_a_large_window(monkeypatch):
    # thin slabs stacked on axis 1 all overlap on axis 0, and their lower
    # corners share a few cells, so every box is a candidate of nearly every
    # other; batches of 100 candidates split the cell search and the sweep
    space = build_grid_space(2, F(1, 4))
    boxes = [
        Box(space, (F(0), F(k, 400)), (F(1, 8), F(k, 400) + F(1, 800 + k % 3)))
        for k in range(60)
    ]
    fam = box_family(space, boxes)
    monkeypatch.setattr(space_module, "PAIR_CHUNK", 100)
    for margin in (F(0), F(1, 1000), F(1, 700)):
        got = covers_module._pair_order(fam, margin)
        assert got == _old_pair_order(*family_ends(fam), margin)
        assert got == sweep_pair_order(fam, margin, batch=100)


def test_pair_order_sends_box_ends_past_float_range_to_the_exact_gap():
    space = builtin_space("unit_interval_8")
    far = F(10**400)
    boxes = [Box(space, (F(-1),), (F(1, 2),)), Box(space, (far,), (far + 1,))]
    fam = box_family(space, boxes)
    assert covers_module._pair_order(fam, space.mesh) == [(0, 1)]
    assert pairwise_disjoint_check(fam, space.mesh).ok
    touching = box_family(space, [boxes[0], Box(space, (F(1, 2),), (far,))])
    assert not pairwise_disjoint_check(touching, space.mesh).ok


# -- certified box-in-ball verdicts -------------------------------------------------


def _assert_agrees(monkeypatch, boxes, outer):
    """containers' answer for box k of the family in region outer[k] against
    the exact per-region test, and the batch verdicts it took them from: 1
    or 0 where settled (certified floats, on ball pairs), -1 where only the
    exact test could tell."""
    verdicts = _count_calls(monkeypatch, covers_module, "_family_verdicts")
    space = boxes[0].space
    found = containers(
        box_family(space, boxes), Cover(space, outer), np.arange(len(outer))[:, None],
        sample=False,
    )
    want = [analytic_contains(b, r) for b, r in zip(boxes, outer)]
    assert found == [(k, "analytic") if w else None for k, w in enumerate(want)]
    (verdict,) = verdicts
    for b, r, v, w in zip(boxes, outer, verdict.tolist(), want):
        if v >= 0:
            assert v == w, (b, r)
    return verdict.tolist()


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_in_ball_verdicts_agree_with_the_corner_test(monkeypatch, dim, metric):
    space = build_grid_space(dim, F(1, 8), metric_kind=metric)
    rng = random.Random(f"{dim}{metric}")
    boxes, balls = [], []
    for _ in range(400):
        center = rng.randrange(space.n)
        c = space.points[center]
        radius = F(rng.randint(1, 64), rng.choice((16, 64, 256)))
        lo = tuple(x - F(rng.randint(-8, 24), 64) for x in c)
        hi = tuple(a + F(rng.randint(1, 40), 64) for a in lo)
        boxes.append(Box(space, lo, hi))
        balls.append(Ball(space, center, radius))
    verdict = _assert_agrees(monkeypatch, boxes, balls)
    # floats settle almost every random pair, both ways
    assert verdict.count(1) > 20 and verdict.count(0) > 20
    assert verdict.count(-1) <= 8


@pytest.mark.parametrize(
    "dim,offsets,r_euclid,r_cheb",
    [(1, (3,), 3, 3), (2, (3, 4), 5, 4), (3, (1, 2, 2), 3, 2), (2, (5, 12), 13, 12)],
)
def test_box_corners_on_the_sphere(monkeypatch, dim, offsets, r_euclid, r_cheb):
    t = F(1, 64)
    for metric, r in (("euclidean", r_euclid), ("chebyshev", r_cheb)):
        space = build_grid_space(dim, F(1, 8), metric_kind=metric)
        center = space.index_of((F(1, 2),) * dim)
        c = space.points[center]
        box = Box(space, tuple(x - o * t for x, o in zip(c, offsets)),
                  tuple(x + o * t for x, o in zip(c, offsets)))
        hi = tuple(x + o * t for x, o in zip(c, offsets))
        skew = Box(space, tuple(x - t / 3 for x in c), hi)
        balls = [
            Ball(space, center, r * t),  # farthest corner exactly on the sphere
            Ball(space, center, r * t + F(1, 2**70)),
            Ball(space, center, r * t - F(1, 2**70)),
            Ball(space, center, r * t * 2),
            Ball(space, center, r * t / 2),
        ]
        boxes = [box] * len(balls) + [skew] * len(balls)
        with monkeypatch.context() as patch:
            verdict = _assert_agrees(patch, boxes, balls + balls)
        assert not analytic_contains(box, balls[0]) and analytic_contains(box, balls[1])
        assert verdict[3] == 1 and verdict[4] == 0


def test_box_in_ball_verdicts_leave_other_pairs_and_extreme_values_undecided(monkeypatch):
    space = build_grid_space(2, F(1, 8))
    ball = Ball(space, 40, F(1, 4))
    box = Box(space, (F(1, 2), F(1, 2)), (F(9, 16), F(9, 16)))
    co = CoClosedBalls(space, ((0, F(1, 8)),))
    huge = Box(space, (F(-(10**400)), F(0)), (F(10**400), F(1, 8)))
    tiny = Ball(space, 40, F(1, 10**400))
    pairs = [(box, co), (huge, ball), (box, tiny)]
    with monkeypatch.context() as patch:
        verdict = _assert_agrees(patch, [p[0] for p in pairs], [p[1] for p in pairs])
    # a box-in-co-ball pair and box ends past float range go to the exact test
    assert verdict[:2] == [-1, -1] and 1 not in verdict
    two_adic = builtin_space("cantor_2adic_10")
    b2 = Box(two_adic, (F(0),), (F(1, 9),))
    assert _assert_agrees(monkeypatch, [b2], [Ball(two_adic, 0, F(1, 2))]) == [-1]
    # a family meets only covers on its own space
    other = build_grid_space(2, F(1, 8))
    with pytest.raises(InputError, match="share one space"):
        containers(box_family(space, [box]), Cover(other, [Ball(other, 40, F(1))]))


def test_given_witness_falls_back_to_sample_containment(monkeypatch):
    space = build_grid_space(1, F(1, 8))
    ball = Ball(space, 4, F(3, 16))  # holds the points 3/8, 1/2, 5/8
    cover = Cover(space, [ball, Box(space, (F(-1),), (F(2),))])
    wide = Box(space, (F(9, 32),), (F(23, 32),))  # analytically not inside
    assert _assert_agrees(monkeypatch, [wide], [ball]) == [0]
    fam = DisjointFamily(box_family(space, [wide]), cover, witness=[0])
    assert fam.witness == (0,) and fam.witness_kinds == ("sample",)
    fam = DisjointFamily(box_family(space, [wide]), cover, witness=[1])
    assert fam.witness_kinds == ("analytic",)
    wider = Box(space, (F(1, 4) - F(1, 64),), (F(11, 16),))
    with pytest.raises(CheckFailure, match="does not hold on the sample"):
        DisjointFamily(box_family(space, [wider]), cover, witness=[0])


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
def test_containing_balls_match_the_per_region_filter(metric):
    space = build_grid_space(2, F(1, 16), metric_kind=metric)
    rng = random.Random(metric)
    radius = F(3, 32)
    net = greedy_net(space, space.subset_all(), radius / 2).centers
    cover = Cover(space, [Ball(space, c, radius) for c in net]
                  + [CoClosedBalls(space, tuple((c, radius / 4) for c in net))])
    regions = []
    for _ in range(300):
        lo = tuple(F(rng.randint(-4, 64), 64) for _ in range(2))
        regions.append(Box(space, lo, tuple(x + F(rng.randint(1, 12), 64) for x in lo)))
    found = haver._containing_balls(box_family(space, regions), cover)
    want = [_old_containing_ball(r, cover, net, radius, space) for r in regions]
    assert [None if hit is None else hit[0] for hit in found] == want
    assert {hit[1] for hit in found if hit is not None} == {"analytic"}
    assert sum(w is not None for w in want) > 30 and want.count(None) > 30


# -- box families against the per-box path ------------------------------------------


def as_object_table(space):
    """The space with its integer table held as Python ints, as a table
    past int64 is: no first-axis windows and no float bounds."""
    space._icoords = space._icoords.astype(object)
    space._fast = False
    return space


@st.composite
def family_spaces(draw):
    """A grid in 1-3 D under either metric, a Cantor sample, or a grid with
    a Python-int table."""
    kind = draw(st.sampled_from(["grid", "grid", "cantor", "object"]))
    if kind == "cantor":
        return build_cantor_space(draw(st.integers(1, 5)))
    dim = draw(st.sampled_from([1, 2, 2, 3]))
    den = draw(st.sampled_from({1: [4, 8, 16], 2: [2, 4, 8], 3: [2, 4]}[dim]))
    metric = draw(st.sampled_from(["euclidean", "chebyshev"]))
    space = build_grid_space(dim, F(1, den), metric)
    return as_object_table(space) if kind == "object" else space


@st.composite
def families(draw, space):
    """Boxes from the block builders (point boxes, brick classes, Cantor
    levels) or arbitrary, possibly overlapping or empty, boxes."""
    kind = draw(st.sampled_from(["points", "bricks", "any"]))
    if kind == "points":  # below half the smallest gap
        gap = exact_sqrt(space.min_positive_gap_sq())
        return _point_boxes(space, gap / draw(st.sampled_from([3, 4, 7])))
    if kind == "bricks" and isinstance(space.structure, GridStructure):
        h = space.structure.h
        classes = build_brick_grid(space, h * draw(st.integers(1, int(1 / h) + 1)))
        return draw(st.sampled_from(classes))
    if kind == "bricks":
        level = draw(st.integers(0, space.structure.depth + 1))
        gamma = F(1, draw(st.sampled_from([4, 7])) * 3**level)
        return _cantor_level_boxes(space, level, gamma)
    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        lo = [F(draw(st.integers(-2, 17)), 16) for _ in range(space.coord_dim)]
        hi = [x + F(draw(st.integers(1, 9)), 16) for x in lo]
        boxes.append(Box(space, tuple(lo), tuple(hi)))
    return box_family(space, boxes)


@st.composite
def covers(draw, space):
    """Balls (radii often sample distances), boxes with ends closed at the
    sample's edge, and complements of closed balls, then one ball holding
    every point, so that the regions cover."""
    point = st.integers(0, space.n - 1)
    regions = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(["ball", "box", "co"]))
        c = draw(point)
        radius = draw(st.sampled_from([F(1, 3), F(1, 4), F(3, 8), F(1, 2)]))
        if shape == "ball":
            root = exact_sqrt(space.distance_sq(c, draw(point)))
            radius = draw(st.sampled_from([radius, root or radius]))
            regions.append(Ball(space, c, radius + F(draw(st.sampled_from([0, 1])), 64)))
        elif shape == "co":
            regions.append(CoClosedBalls(space, ((c, radius / 2),)))
        else:
            lo = tuple(x - radius for x in space.points[c])
            hi = tuple(x + radius for x in space.points[c])
            lo_closed = tuple(a <= m for a, m in zip(lo, space.axis_min))
            hi_closed = tuple(b >= m for b, m in zip(hi, space.axis_max))
            regions.append(Box(space, lo, hi, lo_closed, hi_closed))
    regions.append(Ball(space, draw(point), 4 * space.diameter_upper_bound() + 1))
    return Cover(space, regions)


def _certified(fam, cover, witness):
    """A DisjointFamily's certificates, or the text of its refusal."""
    try:
        made = DisjointFamily(fam, cover, witness)
    except CheckFailure as exc:
        return str(exc), None
    return (made.witness, made.witness_kinds), made


def _certified_oracle(boxes, cover, witness):
    """The certificates or refusal of a family of the boxes, by the
    per-region checks."""
    dis = disjoint_oracle(boxes, cover.space.mesh)
    if not dis.ok:
        pair, reason = dis.violating_pair, dis.reason
        return f"family is not pairwise disjoint: regions {pair} ({reason})"
    found = containers_oracle(boxes, cover, [[w] for w in witness])
    if None in found:
        return "refinement witness does not hold on the sample"
    return tuple(witness), tuple(hit[1] for hit in found)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_families_match_the_per_box_path(data):
    space = data.draw(family_spaces())
    fam = data.draw(families(space))
    boxes = fam.boxes()
    assert [Box(space, b.lo, b.hi) for b in boxes] == list(boxes)
    # members and anchors
    members = [region_members(Box(space, b.lo, b.hi)).tolist() for b in boxes]
    assert [fam.members(i).tolist() for i in range(len(fam))] == members
    assert fam.anchors.tolist() == [m[0] if m else -1 for m in members]
    # witnesses: the Lebesgue lookup at the anchors
    cover = data.draw(covers(space))
    lam = lebesgue_number(cover) / data.draw(st.sampled_from([1, 2, 3]))
    held = fam.anchors[fam.anchors >= 0]
    want = [argmax_loop(cover, int(p), lam) for p in held]
    assert lebesgue_argmax_regions(cover, held, lam).tolist() == want
    # containment: every pair's exact verdict, and the decider's answers
    for i, box in enumerate(boxes):
        for region in cover.regions:
            got = covers_module._family_contains(fam, i, region)
            assert got == analytic_contains(box, region)
    k = len(cover.regions)
    cands = [data.draw(st.lists(st.integers(0, k - 1), max_size=4)) for _ in boxes]
    for given_cands in (None, cands):
        for sample in (True, False):
            assert containers(fam, cover, given_cands, sample) == containers_oracle(
                boxes, cover, given_cands, sample
            )
    # disjointness reports at margins that pass and fail, and certified families
    for margin in (F(0), space.mesh, F(1, 16), F(1, 3)):
        assert pairwise_disjoint_check(fam, margin) == disjoint_oracle(boxes, margin)
    witness = [data.draw(st.integers(0, k - 1)) for _ in boxes]
    if len(held) == len(fam) and data.draw(st.booleans()):
        witness = want  # the Lebesgue witnesses, as a block builder gives them
    got, made = _certified(fam, cover, witness)
    assert got == _certified_oracle(boxes, cover, witness)
    if made is not None:  # a subfamily, with the certified witness
        order = data.draw(st.permutations(range(len(fam))))
        keep = order[: data.draw(st.integers(0, len(fam)))]
        sub = made.subfamily(keep)
        assert sub.regions == tuple(boxes[i] for i in keep)
        assert sub.witness_kinds == tuple(made.witness_kinds[i] for i in keep)
        union = np.zeros(space.n, dtype=bool)
        for i in keep:
            union |= region_mask(boxes[i])
        assert np.array_equal(sub.union_mask(), union)


# -- op-count gates -----------------------------------------------------------------


def test_cantor_demo_sends_no_level_box_pair_to_the_exact_gap(monkeypatch):
    calls = _count_calls(monkeypatch, covers_module, "_family_gap_ge")
    code, _ = run(["demo", "--label", "cantor_10", "--horizon", "12"])
    assert code == 0
    assert len(calls) <= 100  # 76,699 with all pairs of every family up to 64


def _count_sweeps(monkeypatch, *owners):
    """The family sizes pairwise_disjoint_check is called with, through
    each owner's name for it."""
    sizes = []
    check = covers_module.pairwise_disjoint_check

    def counted(regions, margin):
        sizes.append(len(regions))
        return check(regions, margin)

    for owner in owners:
        monkeypatch.setattr(owner, "pairwise_disjoint_check", counted, raising=False)
    return sizes


def _count_everywhere(monkeypatch, name):
    """The calls of a covers function, through every module's name for it."""
    calls = _count_calls(monkeypatch, covers_module, name)
    for owner in (cli, game, haver, netting, screenability):
        if name in vars(owner):
            monkeypatch.setattr(owner, name, getattr(covers_module, name))
    return calls


def _count_boxes_inside(monkeypatch, owner, name):
    """Box constructions in all, and per call of owner.name the ones made
    inside it."""
    boxes = _count_calls(monkeypatch, Box, "__post_init__")
    inside, inner = [], getattr(owner, name)

    def counted(*args):
        before = len(boxes)
        out = inner(*args)
        inside.append(len(boxes) - before)
        return out

    monkeypatch.setattr(owner, name, counted)
    return boxes, inside


def test_square_demo_settles_containment_in_floats(monkeypatch):
    calls = _count_calls(monkeypatch, covers_module, "_family_contains")
    witnessed = _count_calls(monkeypatch, screenability, "_witness_class")
    sizes = _count_sweeps(monkeypatch, covers_module)
    boxes, pointwise = _count_boxes_inside(monkeypatch, screenability, "_pointwise_family")
    members = _count_everywhere(monkeypatch, "region_members")
    floats = _count_everywhere(monkeypatch, "_float_bounds")
    balls = _count_calls(monkeypatch, SampledSpace, "balls")
    built = _count_calls(monkeypatch, Ball, "__post_init__")
    code, _ = run(["demo", "--label", "unit_square_64", "--horizon", "6"])
    assert code == 0
    assert len(calls) <= 500  # 21,181 with exact corners
    # subfamilies inherit disjointness: 16 sweeps when each was re-checked
    assert sum(k >= 2 for k in sizes) <= 8
    # the game builds each block once: 2 when every round rebuilt its blocks;
    # the demo reads its first block from the game's covers: 7 classes
    # witnessed when it built that block again
    assert len(pointwise) <= 1 and len(witnessed) <= 4
    # block families are integer arrays: 4,249 Box objects, 4,225 of them
    # point boxes, 46,830 region_members and 103,003 _float_bounds calls
    # when every family member was a Box
    assert pointwise == [0] and len(boxes) <= 100
    assert len(members) <= 2000 and len(floats) <= 1000
    # a selection's union and a net's check are one ball_union each: 19,048
    # single balls when every selection ball and net center took one; a
    # stage cover's balls take one batched query: 23 single balls and 4
    # batched queries when each ball took its own and Haver's filter
    # queried the balls again
    assert len(balls) <= 6
    # a selection is its stage's centers: 17,237 Ball objects, 17,214 of
    # them selection balls, when each center was a Ball
    assert len(built) <= 100


def test_fincspace_decides_box_pairs_in_integers(monkeypatch, tmp_path):
    # the finite-C scan of the line_search benchmark at seed 1305: a brick
    # class meets the cover boxes on its integer rows
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    argv = dict(workloads.build("line_search", 1305, tmp_path))["fincspace"]
    calls = _count_calls(monkeypatch, covers_module, "_family_contains")
    boxes = _count_calls(monkeypatch, Box, "__post_init__")
    code, doc = run(argv)
    assert code == 0 and doc["result"]["n"] == 2
    # 37,603 and 10,155 when every candidate brick was a Box
    assert len(calls) <= 1000 and len(boxes) <= 1000


def test_fincspace_refutes_from_the_unfiltered_classes(monkeypatch, tmp_path):
    # the same scan at two seeds: every candidate at n = 1 is refuted, and
    # past the 64 refutations a report carries none needs a containment
    # test, a brick layout or a point-cell table; the sides are integer
    # multiples of h, with no list of Fraction sides (3 calls per search of
    # admissible_cell_sides when there was one)
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    assert not hasattr(screenability, "admissible_cell_sides")
    for seed, candidates in ((1305, 2814), (1, 2750)):
        argv = dict(workloads.build("line_search", seed, tmp_path))["fincspace"]
        scanning, tried, laid_out = [], [], []
        scan, layout = screenability._scan_candidates, screenability.build_brick_grid

        def counted_scan(*args):
            scanning.append(True)
            try:
                found, count = scan(*args)
            finally:
                scanning.pop()
            tried.append(count)
            return found, count

        def counted_layout(*args):
            laid_out.append(bool(scanning))
            return layout(*args)

        monkeypatch.setattr(screenability, "_scan_candidates", counted_scan)
        monkeypatch.setattr(screenability, "build_brick_grid", counted_layout)
        decided = _count_calls(monkeypatch, screenability, "containers")
        tables = _count_calls(monkeypatch, screenability, "_brick_cells")
        code, doc = run(argv)
        monkeypatch.undo()
        assert code == 0 and doc["result"]["n"] == 2
        assert tried == [candidates] and len(decided) == 64
        # 32 sides in the scan, both rotations of each tried, and one
        # block at each of n = 1, 2
        assert laid_out.count(True) == 32 and laid_out.count(False) == 2
        # one point-cell table per layout: 1,441 and 1,409 when every
        # side built one for the prefilter
        assert len(tables) == 34


def test_golden_refine_sweeps_each_family_once(monkeypatch):
    sizes = _count_sweeps(monkeypatch, covers_module, cli)
    code, doc = run(["refine", "--space", str(GOLDEN / "space.json"),
                     "--cover", str(GOLDEN / "cover.json")])
    assert code == 0 and len(doc["result"]["families"]) == 2
    assert len(sizes) == 2  # 4 when the report swept the families again


def test_golden_fincspace_scan_decides_each_class_in_one_call(monkeypatch):
    scanning, sizes = [], []
    scan, decide = screenability._scan_candidates, covers_module.containers

    def counted_scan(*args):
        scanning.append(True)
        try:
            return scan(*args)
        finally:
            scanning.pop()

    def counted_decide(inner, *args, **kwargs):
        if scanning:
            sizes.append(len(inner))
        return decide(inner, *args, **kwargs)

    monkeypatch.setattr(screenability, "_scan_candidates", counted_scan)
    monkeypatch.setattr(screenability, "containers", counted_decide)
    code, doc = run(["fincspace", "--space", str(GOLDEN / "space.json"),
                     "--covers", str(GOLDEN / "covers.json")])
    assert code == 0 and doc["result"]["n"] == 2
    # one call per candidate class and stage cover, 30 for the 46 candidate
    # boxes: 46 calls when every candidate box was checked on its own
    assert sum(sizes) == 46 and len(sizes) == 30


def test_point_isolating_family_needs_no_exact_pair(monkeypatch):
    space = builtin_space("unit_square_64")
    cover = Cover(space, [Ball(space, 0, F(2))])
    orders = _count_calls(monkeypatch, covers_module, "_pair_order")
    family = _pointwise_family(space, cover, lebesgue_number(cover))
    assert len(family) == 4225
    assert [len(pairs) for pairs in orders] == [0]
