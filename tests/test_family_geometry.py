"""Differential tests of the disjoint-family geometry against the bodies it
replaced.

`build_brick_grid` lays a class out as the product of one axis's occupied
slots, `_pair_order` sweeps box families in the order of their lower ends
on axis 0, and `box_in_ball_verdicts` settles box-in-ball containment with
certified floats before any exact test.  The oracles below are the earlier
bodies: the per-point bucket layout (with its Fraction branch), the per-box
float filter over every later box (all pairs up to 64 boxes), and the exact
corner test `analytic_contains`, which stays in the package.  Every layout,
report, witness and verdict must be identical.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import covergames.covers as covers_module
from covergames import cli, haver, screenability
from covergames.cli import run
from covergames.covers import (
    Ball,
    Box,
    CoClosedBalls,
    Cover,
    DisjointFamily,
    analytic_contains,
    box_in_ball_verdicts,
    lebesgue_number,
    pairwise_disjoint_check,
    region_members,
)
from covergames.exact import CheckFailure
from covergames.jsonio import space_from_json
from covergames.netting import greedy_net
from covergames.registry import builtin_names, builtin_space
from covergames.screenability import _pointwise_family, build_brick_grid
from covergames.space import GridStructure, SampledSpace, build_grid_space

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


def _old_pair_order(regions, margin, all_pairs_up_to=64):
    """All index pairs, pruned by the float filter for box families larger
    than all_pairs_up_to, each box against every later box."""
    n = len(regions)
    if n <= all_pairs_up_to or not all(isinstance(r, Box) for r in regions):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    lo = np.array([[np.nextafter(float(x), -np.inf) for x in r.lo] for r in regions])
    hi = np.array([[np.nextafter(float(x), np.inf) for x in r.hi] for r in regions])
    pad = np.nextafter(float(margin), np.inf)
    pairs = []
    for i in range(n):
        close = np.ones(n - i - 1, dtype=bool)
        for ax in range(lo.shape[1]):
            gap_above = lo[i + 1 :, ax] - hi[i, ax]
            gap_below = lo[i, ax] - hi[i + 1 :, ax]
            close &= (gap_above <= pad) & (gap_below <= pad)
        for off in np.flatnonzero(close):
            pairs.append((i, i + 1 + int(off)))
    return pairs


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
        assert build_brick_grid(space, m * h) == _bucket_brick_grid(space, m * h), m


def test_brick_layout_matches_buckets_on_the_file_grid():
    axis = [f"{k}/128" for k in range(129)]
    points = [[x, y] for x in axis for y in axis]
    space = space_from_json({"metric": "euclidean", "mesh": "3/512", "points": points})
    assert space.structure == GridStructure(2, F(1, 128))
    for m in _sides(128):
        side = F(m, 128)
        assert build_brick_grid(space, side) == _bucket_brick_grid(space, side), m


@pytest.mark.parametrize("dim,den", [(1, 8), (1, 64), (2, 8), (2, 16), (3, 4), (3, 8)])
def test_brick_layout_matches_the_fraction_branch(dim, den):
    metric = "chebyshev" if dim == 2 else "euclidean"
    space = build_grid_space(dim, F(1, den), metric_kind=metric)
    assert space.scale * space.structure.h == 1
    for m in _sides(den):
        want = _bucket_brick_grid(space, F(m, den), fraction_branch=True)
        assert build_brick_grid(space, F(m, den)) == want, m


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


def _all_pairs_report(monkeypatch, boxes, margin):
    with monkeypatch.context() as patch:
        every_pair = lambda r, m: _old_pair_order(r, m, 10**9)  # noqa: E731
        patch.setattr(covers_module, "_pair_order", every_pair)
        return pairwise_disjoint_check(boxes, margin)


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_disjoint_reports_match_all_pairs(monkeypatch, dim, metric):
    space = build_grid_space(dim, F(1, 4), metric_kind=metric)
    # 128, 256 and 512 lattice cells, so families pass 64 boxes
    margin = F(1, 5 * 4 * {1: 32, 2: 4, 3: 2}[dim])
    reasons = set()
    for seed in range(24):
        rng = random.Random(f"{dim}:{metric}:{seed}")
        boxes = _planted_family(rng, space, margin, seed % 4)
        want = _old_pair_order(boxes, margin, 1)
        assert covers_module._pair_order(boxes, margin) == want
        got = pairwise_disjoint_check(boxes, margin)
        assert got == _all_pairs_report(monkeypatch, boxes, margin)
        reasons.add(got.reason)
    # the seeds reach every outcome
    assert reasons == {None, "analytic_overlap", "gap_below_margin", "shared_point"}


def test_pair_order_is_lexicographic_and_keeps_mixed_families_whole():
    space = build_grid_space(2, F(1, 8))
    side = F(1, 20)
    boxes = [Box(space, (F(k, 16), F(0)), (F(k, 16) + side, side)) for k in range(10)]
    boxes.reverse()
    pairs = covers_module._pair_order(boxes, F(1, 64))
    assert pairs == sorted(pairs) == _old_pair_order(boxes, F(1, 64), 1)
    mixed = boxes + [Ball(space, 0, F(1, 32))]
    assert len(covers_module._pair_order(mixed, F(1, 64))) == 11 * 10 // 2
    assert covers_module._pair_order(boxes[:1], F(1, 64)) == []


def test_pair_order_batches_a_large_window(monkeypatch):
    # thin slabs stacked on axis 1 all overlap on axis 0, so every box is a
    # candidate of every other; batches of 100 candidates split the sweep
    space = build_grid_space(2, F(1, 4))
    boxes = [
        Box(space, (F(0), F(k, 400)), (F(1, 8), F(k, 400) + F(1, 800 + k % 3)))
        for k in range(60)
    ]
    monkeypatch.setattr(covers_module, "_SWEEP_BATCH", 100)
    for margin in (F(0), F(1, 1000), F(1, 700)):
        got = covers_module._pair_order(boxes, margin)
        assert got == _old_pair_order(boxes, margin, 1)


def test_pair_order_sends_box_ends_past_float_range_to_the_exact_gap():
    space = builtin_space("unit_interval_8")
    far = F(10**400)
    boxes = [Box(space, (F(-1),), (F(1, 2),)), Box(space, (far,), (far + 1,))]
    assert covers_module._pair_order(boxes, space.mesh) == [(0, 1)]
    assert pairwise_disjoint_check(boxes, space.mesh).ok
    touching = [boxes[0], Box(space, (F(1, 2),), (far,))]
    assert not pairwise_disjoint_check(touching, space.mesh).ok


# -- certified box-in-ball verdicts -------------------------------------------------


def _assert_agrees(boxes, balls):
    verdict = box_in_ball_verdicts(boxes, balls).tolist()
    for b, ball, v in zip(boxes, balls, verdict):
        if v >= 0:
            assert v == analytic_contains(b, ball), (b, ball)
    return verdict


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_in_ball_verdicts_agree_with_the_corner_test(dim, metric):
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
    verdict = _assert_agrees(boxes, balls)
    # floats settle almost every random pair, both ways
    assert verdict.count(1) > 20 and verdict.count(0) > 20
    assert verdict.count(-1) <= 8


@pytest.mark.parametrize(
    "dim,offsets,r_euclid,r_cheb",
    [(1, (3,), 3, 3), (2, (3, 4), 5, 4), (3, (1, 2, 2), 3, 2), (2, (5, 12), 13, 12)],
)
def test_box_corners_on_the_sphere(dim, offsets, r_euclid, r_cheb):
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
        verdict = _assert_agrees(boxes, balls + balls)
        assert not analytic_contains(box, balls[0]) and analytic_contains(box, balls[1])
        assert verdict[3] == 1 and verdict[4] == 0


def test_box_in_ball_verdicts_leave_other_pairs_and_extreme_values_undecided():
    space = build_grid_space(2, F(1, 8))
    ball = Ball(space, 40, F(1, 4))
    box = Box(space, (F(1, 2), F(1, 2)), (F(9, 16), F(9, 16)))
    co = CoClosedBalls(space, ((0, F(1, 8)),))
    huge = Box(space, (F(-(10**400)), F(0)), (F(10**400), F(1, 8)))
    tiny = Ball(space, 40, F(1, 10**400))
    other = build_grid_space(2, F(1, 8))
    pairs = [
        (ball, ball), (box, co), (co, ball), (huge, ball), (box, tiny),
        (Box(other, box.lo, box.hi), ball),
        (Box(other, box.lo, box.hi), Ball(other, 40, F(1))),
    ]
    verdict = _assert_agrees([p[0] for p in pairs], [p[1] for p in pairs])
    # pairs off the first region's space are left to the exact test
    assert verdict[:3] == [-1, -1, -1] and verdict[5:] == [-1, -1]
    assert 1 not in verdict
    two_adic = builtin_space("cantor_2adic_10")
    b2 = Box(two_adic, (F(0),), (F(1, 9),))
    assert box_in_ball_verdicts([b2], [Ball(two_adic, 0, F(1, 2))]).tolist() == [-1]


def test_given_witness_falls_back_to_sample_containment():
    space = build_grid_space(1, F(1, 8))
    ball = Ball(space, 4, F(3, 16))  # holds the points 3/8, 1/2, 5/8
    cover = Cover(space, [ball, Box(space, (F(-1),), (F(2),))])
    wide = Box(space, (F(9, 32),), (F(23, 32),))  # analytically not inside
    assert box_in_ball_verdicts([wide], [ball]).tolist() == [0]
    fam = DisjointFamily([wide], cover, witness=[0])
    assert fam.witness == (0,) and fam.witness_kinds == ("sample",)
    assert DisjointFamily([wide], cover, witness=[1]).witness_kinds == ("analytic",)
    wider = Box(space, (F(1, 4) - F(1, 64),), (F(11, 16),))
    with pytest.raises(CheckFailure, match="does not hold on the sample"):
        DisjointFamily([wider], cover, witness=[0])


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
    regions.append(Ball(space, 17, F(1, 40)))
    got = haver._containing_balls(regions, cover, net, radius, space)
    want = [_old_containing_ball(r, cover, net, radius, space) for r in regions]
    assert got == want
    assert sum(w is not None for w in want) > 30 and want.count(None) > 30


# -- op-count gates -----------------------------------------------------------------


def test_cantor_demo_sends_no_level_box_pair_to_the_exact_gap(monkeypatch):
    calls = _count_calls(monkeypatch, covers_module, "analytic_gap_ge")
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


def test_square_demo_settles_containment_in_floats(monkeypatch):
    calls = _count_calls(monkeypatch, covers_module, "analytic_contains")
    sizes = _count_sweeps(monkeypatch, covers_module)
    pointwise = _count_calls(monkeypatch, screenability, "_pointwise_family")
    balls = _count_calls(monkeypatch, SampledSpace, "ball")
    selections, decompose = [], cli.decompose_from_hurewicz

    def kept(space, sel, *args, **kwargs):
        selections.append(sel)
        return decompose(space, sel, *args, **kwargs)

    monkeypatch.setattr(cli, "decompose_from_hurewicz", kept)
    code, _ = run(["demo", "--label", "unit_square_64", "--horizon", "6"])
    assert code == 0
    assert len(calls) <= 500  # 21,181 with exact corners
    # subfamilies inherit disjointness: 16 sweeps when each was re-checked
    assert sum(k >= 2 for k in sizes) <= 8
    # the game builds each block once: 2 when every round rebuilt its blocks
    assert len(pointwise) <= 1
    # a selection's union and a net's check are one ball_union each: 19,048
    # single balls when every selection ball and net center took one
    assert len(balls) <= 100
    (sel,) = selections
    assert not any("_members" in b.__dict__ for chosen in sel.values() for b in chosen)


def test_golden_refine_sweeps_each_family_once(monkeypatch):
    sizes = _count_sweeps(monkeypatch, covers_module, cli)
    code, doc = run(["refine", "--space", str(GOLDEN / "space.json"),
                     "--cover", str(GOLDEN / "cover.json")])
    assert code == 0 and len(doc["result"]["families"]) == 2
    assert len(sizes) == 2  # 4 when the report swept the families again


def test_golden_fincspace_scan_runs_no_refines_check(monkeypatch):
    scanning, calls = [], []
    scan, check = screenability._scan_candidates, covers_module.refines_check

    def counted_scan(*args):
        scanning.append(True)
        try:
            return scan(*args)
        finally:
            scanning.pop()

    def counted_check(*args):
        calls.extend(scanning[:1])
        return check(*args)

    monkeypatch.setattr(screenability, "_scan_candidates", counted_scan)
    for owner in (covers_module, screenability):
        monkeypatch.setattr(owner, "refines_check", counted_check, raising=False)
    code, doc = run(["fincspace", "--space", str(GOLDEN / "space.json"),
                     "--covers", str(GOLDEN / "covers.json")])
    assert code == 0 and doc["result"]["n"] == 2
    assert calls == []  # 46 with one refines_check per candidate box


def test_point_isolating_family_needs_no_exact_pair(monkeypatch):
    space = builtin_space("unit_square_64")
    cover = Cover(space, [Ball(space, 0, F(2))])
    orders = _count_calls(monkeypatch, covers_module, "_pair_order")
    family = _pointwise_family(space, cover, lebesgue_number(cover))
    assert len(family) == 4225
    assert [len(pairs) for pairs in orders] == [0]
