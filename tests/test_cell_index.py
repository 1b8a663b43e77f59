"""Differential tests of the cell index (`space.CellIndex`) against the
axis-0 searches it replaced, and its op-count gates.

`covers._pair_order` finds the box pairs the exact gap test must see by a
3**k-neighbour cell search, `SampledSpace.boxes` reads the cells each box
spans, and `SampledSpace.ball_union`, `balls` and `ball_pairs` read the
same index, dense or binary-searched.  The oracles are the axis-0 sweep
(`oracles.sweep_pair_order`), the float filter of every pair
(`oracles._old_pair_order`), the per-region disjointness check with an
exact gap for every pair, the first-axis window box query
(`oracles.window_boxes`) and the one-ball query (`oracles.window_ball`).  Pair lists, reports
and members must be identical.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.covers as covers_module
import covergames.space as space_module
from covergames.cli import run
from covergames.covers import Ball, Box, Cover, lebesgue_number, pairwise_disjoint_check
from covergames.netting import greedy_net
from covergames.screenability import _pointwise_family
from covergames.space import SampledSpace, build_grid_space
from oracles import (
    _old_pair_order,
    box_family,
    sweep_candidates,
    sweep_pair_order,
    window_ball,
    window_boxes,
)
from oracles import pairwise_disjoint_check as disjoint_oracle


def family_ends(fam):
    lo, hi = fam.float_bounds()
    return lo[..., 0], hi[..., 1]


def report_by_sweep(monkeypatch, fam, margin):
    """pairwise_disjoint_check with the sweep as its broad phase."""
    with monkeypatch.context() as patch:
        patch.setattr(covers_module, "_pair_order", sweep_pair_order)
        return pairwise_disjoint_check(fam, margin)


# -- disjointness broad phase -------------------------------------------------------


@st.composite
def close_families(draw):
    """Boxes in 1-3 axes placed against earlier ones: overlapping, touching,
    at the margin, a hair (2**-40) either side of it, or further off.  The
    ends sit on a unit of 1/16, 1/21 (float rounding in every end) or
    3**-45 (rows past int64), around 0 or far from it (float slack that
    grows with the magnitude)."""
    dim = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(["euclidean", "chebyshev"]))
    space = build_grid_space(dim, F(1, 4), metric)
    unit = F(1, draw(st.sampled_from([16, 21, 3**45])))
    margin = draw(st.sampled_from([F(0), unit, 3 * unit, F(1, 7), space.mesh]))
    hair = F(1, 2**40)
    gaps = [F(0), margin, margin + hair, margin - hair, -unit, 2 * unit, margin + unit]
    offset = draw(st.sampled_from([F(0), F(1000, 3), F(2**40, 7)]))
    lo = [offset + unit * draw(st.integers(-4, 20)) for _ in range(dim)]
    boxes = [(lo, [x + unit * draw(st.integers(1, 8)) for x in lo])]
    for _ in range(draw(st.integers(1, 40))):
        base_lo, base_hi = boxes[draw(st.integers(0, len(boxes) - 1))]
        ax = draw(st.integers(0, dim - 1))
        lo = [x + unit * draw(st.integers(-3, 3)) for x in base_lo]
        width = [unit * draw(st.integers(1, 8)) for _ in range(dim)]
        if draw(st.booleans()):  # above the base box on axis ax
            lo[ax] = base_hi[ax] + draw(st.sampled_from(gaps))
        else:  # below it
            lo[ax] = base_lo[ax] - draw(st.sampled_from(gaps)) - width[ax]
        boxes.append((lo, [x + w for x, w in zip(lo, width)]))
    order = draw(st.permutations(range(len(boxes))))
    boxes = [Box(space, tuple(boxes[i][0]), tuple(boxes[i][1])) for i in order]
    return space, boxes, margin


@settings(max_examples=150, deadline=None)
@given(close_families())
def test_pair_order_matches_the_sweep_and_the_float_filter(case):
    space, boxes, margin = case
    fam = box_family(space, boxes)
    got = covers_module._pair_order(fam, margin)
    assert got == sweep_pair_order(fam, margin)
    assert got == _old_pair_order(*family_ends(fam), margin)
    # every pair sees the exact gap in the oracle
    want = disjoint_oracle(boxes, margin, all_pairs_up_to=10**9)
    assert pairwise_disjoint_check(fam, margin) == want


def test_close_families_reach_every_row_type_and_outcome():
    # the strategy's corners, drawn by hand: object rows, and reports of
    # every kind at the margin's float-rounding edge
    space = build_grid_space(2, F(1, 4))
    margin, hair = F(1, 7), F(1, 2**40)
    far = F(1000, 3)
    for gap, reason in [
        (margin, None),
        (margin + hair, None),
        (margin - hair, "gap_below_margin"),
        (F(0), "gap_below_margin"),
        (-F(1, 21), "analytic_overlap"),
    ]:
        a = Box(space, (far, far), (far + F(2, 21), far + F(1, 21)))
        b = Box(space, (far + F(2, 21) + gap, far), (far + F(5, 21) + gap, far + F(1, 7)))
        fam = box_family(space, [a, b])
        assert fam.lo.dtype == np.int64
        assert covers_module._pair_order(fam, margin) == [(0, 1)]
        assert pairwise_disjoint_check(fam, margin).reason == reason
    unit = F(1, 3**45)
    boxes = [Box(space, (far + k * unit, far), (far + (k + 1) * unit, far + unit))
             for k in (0, 1, 10**6)]
    fam = box_family(space, boxes)
    assert fam.lo.dtype == object
    assert covers_module._pair_order(fam, F(0)) == [(0, 1), (0, 2), (1, 2)]
    assert pairwise_disjoint_check(fam, F(0)) == disjoint_oracle(boxes, F(0))


def test_pair_order_sends_every_pair_past_a_huge_denominator_to_the_exact_gap():
    # int64 rows over a denominator of 2**1001 have no float bounds
    space = build_grid_space(1, F(1, 16))
    tiny = F(1, 2**1001)
    boxes = [Box(space, (k * tiny,), ((k + 1) * tiny,)) for k in (0, 2, 5)]
    fam = box_family(space, boxes)
    assert fam.lo.dtype == np.int64 and fam.den >= 2**1000
    assert covers_module._pair_order(fam, F(0)) == [(0, 1), (0, 2), (1, 2)]
    assert pairwise_disjoint_check(fam, F(0)).ok
    assert not pairwise_disjoint_check(fam, 2 * tiny).ok


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
def test_grid_129_point_family_matches_the_sweep(monkeypatch, metric):
    space = build_grid_space(2, F(1, 128), metric)
    cover = Cover(space, [Ball(space, 0, F(2))])
    fam = _pointwise_family(space, cover, lebesgue_number(cover)).family
    h = F(1, 128)
    # none, the axis neighbours, and the diagonal ones too
    for margin in (space.mesh, h, 3 * h / 2):
        got = covers_module._pair_order(fam, margin)
        assert got == sweep_pair_order(fam, margin)
        report = pairwise_disjoint_check(fam, margin)
        assert report == report_by_sweep(monkeypatch, fam, margin)
    assert report.violating_pair == (0, 1)
    assert len(got) == 4 * 128 * 128 + 2 * 128  # axis pairs and diagonals


# -- box queries --------------------------------------------------------------------


@st.composite
def clouds(draw):
    """int64 point sets in 1-3 axes whose span is small (dense cells), or
    wide (sparse cells, and cell sides coarsened to keep keys in int64)."""
    dim = draw(st.integers(1, 3))
    reach = draw(st.sampled_from([6, 2**20, 2**29]))
    coord = st.integers(-reach, reach)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40, unique=True))
    metric = draw(st.sampled_from(["euclidean", "chebyshev"]))
    return SampledSpace.from_table(1, np.array(pts, dtype=np.int64), metric, F(1, 2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_boxes_match_the_window_query(data):
    space = data.draw(clouds())
    assert space._fast
    table = space._icoords.tolist()
    big = np.iinfo(np.int64)
    ends = []
    for k in range(space.coord_dim):
        values = sorted({row[k] for row in table})
        ends.append([big.min, values[0] - 1, *values, values[-1] + 1, big.max])
    boxes = []
    for _ in range(data.draw(st.integers(0, 8))):
        box = []
        for e in ends:
            a, b = sorted(data.draw(st.lists(st.sampled_from(e), min_size=2, max_size=2)))
            if data.draw(st.booleans()):  # a narrow box around a sample value
                b = min(a + data.draw(st.integers(0, 3)), big.max)
            box.append((a, b))
        boxes.append(box)
    shape = (len(boxes), space.coord_dim)
    gt = np.array([[b[0] for b in box] for box in boxes], dtype=np.int64).reshape(shape)
    le = np.array([[b[1] for b in box] for box in boxes], dtype=np.int64).reshape(shape)
    chunk = data.draw(st.sampled_from([1, 5, space_module.PAIR_CHUNK]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "PAIR_CHUNK", chunk)
        indptr, indices = space.boxes(gt, le)
    want_ptr, want = window_boxes(space, gt, le)
    assert np.array_equal(indptr, want_ptr) and np.array_equal(indices, want)
    got = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    assert got == [space.box(box).tolist() for box in boxes]


def test_point_boxes_of_the_129_grid_match_the_window_query():
    space = build_grid_space(2, F(1, 128))
    for width in (0, 1, 2):  # each box around one point, or a few
        gt, le = space._icoords - 1 - width, space._icoords + width
        got, want = space.boxes(gt, le), window_boxes(space, gt, le)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ball_queries_match_the_per_ball_members_on_wide_clouds(data):
    space = data.draw(clouds())
    centers = data.draw(st.lists(st.integers(0, space.n - 1), max_size=12))
    a, b = data.draw(st.integers(0, space.n - 1)), data.draw(st.integers(0, space.n - 1))
    d = int(space._dist_sq_to(a, np.array([b]))[0])
    bound = data.draw(st.sampled_from([0, d, max(d - 1, 0), d + 1, d // 9]))
    want = [window_ball(space, c, bound) for c in centers]
    union = np.zeros(space.n, dtype=bool)
    for members in want:
        union[members] = True
    assert np.array_equal(space.ball_union(centers, bound), union)
    indptr, indices = space.balls(centers, bound)
    got = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    assert got == [m.tolist() for m in want]


def test_space_keeps_a_few_cell_indexes():
    space = build_grid_space(2, F(1, 32))
    for side in range(1, 9):
        space._cells(side)
    assert list(space._cell_cache) == [6, 7, 8]
    assert space._cells(7) is space._cells(7)


# -- op-count gates -----------------------------------------------------------------


def test_square_demo_fallback_block_reads_at_most_9n_candidates(monkeypatch):
    calls = []
    order, close = covers_module._pair_order, covers_module._float_close

    def counted_order(fam, margin):
        calls.append([fam, margin, 0])
        return order(fam, margin)

    def counted_close(lo, hi, i, j, pad):
        calls[-1][2] += len(i)
        return close(lo, hi, i, j, pad)

    monkeypatch.setattr(covers_module, "_pair_order", counted_order)
    monkeypatch.setattr(covers_module, "_float_close", counted_close)
    code, _ = run(["demo", "--label", "unit_square_64", "--horizon", "6"])
    assert code == 0
    ((fam, margin, candidates),) = [c for c in calls if len(c[0]) == 4225]
    assert candidates <= 9 * 4225  # 14,632 now
    # the axis-0 sweep read whole grid columns
    assert sweep_candidates(fam, margin) == 135_200


def _count_searchsorted(run_it) -> int:
    """The searchsorted calls (array method or numpy function) run_it makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", "") == "searchsorted":
            calls += 1

    sys.setprofile(profile)
    try:
        run_it()
    finally:
        sys.setprofile(None)
    return calls


def test_grid_129_traversal_binary_searches_less():
    space = build_grid_space(2, F(1, 128))
    count = _count_searchsorted(
        lambda: greedy_net(space, space.subset_all(), F(1, 256))
    )
    # 737 when every cell offset of the pair search took two binary
    # searches in the sorted center keys; 359 with the dense cell CSR
    assert count < 737
    assert count <= 400
