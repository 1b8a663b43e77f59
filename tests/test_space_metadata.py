"""Differential tests of the space metadata against O(n^2) oracles.

`SampledSpace` derives its diameter and minimum gap in closed form from the
integer coordinate table, and recognizes grid / Cantor structure on that
table.  The oracles here scan every pair: on exact Fractions for small
random samples, and over the integer table in row blocks for the built-in
spaces and the 129 x 129 grid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.space as space_module
from covergames.exact import InputError, exact_sqrt, sqrt_upper
from covergames.registry import builtin_names, builtin_space
from covergames.space import (
    CantorStructure,
    GridStructure,
    SampledSpace,
    build_cantor_2adic_space,
    build_cantor_space,
    build_grid_space,
    detect_structure,
    diameter,
    diameter_of_sq,
    diameters_sq,
)
from oracles import cantor_points

MESH = F(1, 64)


# -- oracles ------------------------------------------------------------------------


def _ternary_level_differs(x: F, y: F) -> int:
    """First ternary level (1-based) at which x and y differ."""
    level = 0
    while x != y:
        level += 1
        x, y = 3 * x, 3 * y
        dx, dy = x.numerator // x.denominator, y.numerator // y.denominator
        if dx != dy:
            return level
        x, y = x - dx, y - dy
    raise ValueError("equal points")


def fraction_dist_sq(metric: str, p, q) -> F:
    """Squared distance computed on the Fraction coordinates."""
    if metric == "euclidean":
        return sum(((a - b) ** 2 for a, b in zip(p, q)), F(0))
    if metric == "chebyshev":
        return max(abs(a - b) for a, b in zip(p, q)) ** 2
    return F(1, 4 ** _ternary_level_differs(p[0], q[0]))


def pair_oracle(metric: str, points) -> tuple[F, F]:
    """(diameter^2, minimum positive gap^2) over every pair of Fraction
    points; a single point has diameter 0 and gap 1 by convention."""
    dsq = [fraction_dist_sq(metric, p, q) for p, q in itertools.combinations(points, 2)]
    if not dsq:
        return F(0), F(1)
    return max(dsq), min(dsq)


def table_oracle(space: SampledSpace, block: int = 128) -> tuple[F, F]:
    """(diameter^2, minimum positive gap^2) over every pair of the integer
    table, one block of rows at a time."""
    n = space.n
    if space.metric_kind == "cantor_2adic":
        bits = space._cantor_bits
        table = space._msb_table
    else:
        icoords = np.asarray(space._icoords, dtype=np.int64)
    worst, best = 0, None
    for start in range(0, n, block):
        stop = min(n, start + block)
        if space.metric_kind == "cantor_2adic":
            msb = table[bits[start:stop, None] ^ bits[None, start:]]
            dsq = msb * msb
        else:
            delta = icoords[start:stop, None, :] - icoords[None, start:, :]
            if space.metric_kind == "euclidean":
                dsq = (delta * delta).sum(axis=2)
            else:
                dsq = np.abs(delta).max(axis=2) ** 2
        worst = max(worst, int(dsq.max()))
        pos = dsq[dsq > 0]
        if pos.size:
            best = int(pos.min()) if best is None else min(best, int(pos.min()))
    scale = space.dist_scale_sq
    return F(worst, scale), F(1) if best is None else F(best, scale)


def old_detect_structure(points):
    """Structure recognition on the Fraction point set."""
    dim = len(points[0])
    pset = set(points)
    if dim == 1:
        n = len(points)
        if n and n & (n - 1) == 0:
            depth = n.bit_length() - 1
            if depth >= 1 and pset == set(cantor_points(depth)):
                return CantorStructure(depth)
    axis_vals = sorted({p[0] for p in points})
    if len(axis_vals) >= 2 and axis_vals[0] == 0 and axis_vals[-1] == 1:
        h = axis_vals[1] - axis_vals[0]
        if h > 0 and all(axis_vals[k] == k * h for k in range(len(axis_vals))):
            expected = set(
                itertools.product([F(k) * h for k in range(len(axis_vals))], repeat=dim)
            )
            if pset == expected:
                return GridStructure(dim, h)
    return None


def upper_bound_of(dsq: F, mesh: F) -> F:
    root = exact_sqrt(dsq)
    return root if root is not None else sqrt_upper(dsq, mesh / 1024)


def assert_distances_match(space: SampledSpace) -> None:
    """Every single distance against the Fraction coordinates."""
    pts = space.points
    for i, j in itertools.product(range(space.n), repeat=2):
        assert space.distance_sq(i, j) == (
            fraction_dist_sq(space.metric_kind, pts[i], pts[j]) if i != j else 0
        )


def assert_metadata_matches(space: SampledSpace, diam_sq: F, gap_sq: F) -> None:
    assert diameter(space, space.subset_all()).value_sq == diam_sq
    assert space.min_positive_gap_sq() == gap_sq
    assert space.diameter_upper_bound() == upper_bound_of(diam_sq, space.mesh)


# -- random samples ----------------------------------------------------------------

coordinate = st.builds(
    F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 7])
)


@st.composite
def scattered(draw):
    """Distinct points on a small rational lattice (ties and corners common)."""
    dim = draw(st.integers(1, 3))
    return draw(
        st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=14, unique=True)
    )


@st.composite
def products(draw):
    """A full product of per-axis value sets, sometimes missing one point."""
    dim = draw(st.integers(1, 3))
    axes = [
        draw(st.lists(coordinate, min_size=1, max_size=4, unique=True)) for _ in range(dim)
    ]
    pts = list(itertools.product(*axes))
    if len(pts) > 1 and draw(st.booleans()):
        pts.pop(draw(st.integers(0, len(pts) - 1)))
    return pts


@st.composite
def lattice_subsets(draw):
    """Subsets of {0, 1/m, ..., 1}**dim or of {k / 3**depth}: samples that
    are grids or Cantor sets, or nearly so."""
    if draw(st.booleans()):
        dim, m = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        full = list(itertools.product([F(k, m) for k in range(m + 1)], repeat=dim))
    else:
        depth = draw(st.integers(1, 3))
        full = [(F(k, 3**depth),) for k in range(3**depth)]
    chosen = draw(st.sets(st.integers(0, len(full) - 1), min_size=1, max_size=len(full)))
    return [full[i] for i in sorted(chosen)]


@st.composite
def cantor_subsets(draw):
    depth = draw(st.integers(1, 6))
    pts = cantor_points(depth)
    chosen = draw(st.sets(st.integers(0, len(pts) - 1), min_size=1, max_size=24))
    return [pts[i] for i in sorted(chosen)]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(scattered(), products(), lattice_subsets()),
    st.sampled_from(["euclidean", "chebyshev"]),
)
def test_random_samples_match_pair_oracle(points, metric):
    space = SampledSpace(points, metric, MESH)
    assert_distances_match(space)
    assert_metadata_matches(space, *pair_oracle(metric, space.points))
    assert space.structure == old_detect_structure(space.points)
    assert detect_structure(space.points) == old_detect_structure(space.points)


@settings(max_examples=100, deadline=None)
@given(cantor_subsets(), st.sampled_from(["euclidean", "cantor_2adic"]))
def test_cantor_subsets_match_pair_oracle(points, metric):
    space = SampledSpace(points, metric, F(1, 3**6))
    assert_distances_match(space)
    assert_metadata_matches(space, *pair_oracle(metric, space.points))
    assert space.structure == old_detect_structure(space.points)


HUGE = F(2**40)  # scaled coordinates this far apart overflow int64 distances


@st.composite
def subsets_of_spaces(draw):
    """(space, sorted indices): every metric kind on int64 and object
    tables, and a run or a random subset of the sample (non-product sets
    common)."""
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "cantor_2adic", "object"]))
    points = draw(st.one_of(scattered(), products(), lattice_subsets()))
    if kind == "cantor_2adic":
        space = SampledSpace(draw(cantor_subsets()), kind, F(1, 3**6))
    elif kind == "object":
        far = (F(100),) * len(points[0])  # keeps the span past int64
        points = [tuple(c * HUGE for c in p) for p in [*points, far]]
        space = SampledSpace(points, draw(st.sampled_from(["euclidean", "chebyshev"])), MESH)
        assert not space._fast
    else:
        space = SampledSpace(points, kind, MESH)
    if draw(st.booleans()):  # consecutive indices: Cantor blocks, grid rows
        a, b = sorted(draw(st.tuples(*[st.integers(0, space.n)] * 2)))
        return space, list(range(a, b))
    chosen = draw(st.sets(st.integers(0, space.n - 1), max_size=space.n))
    return space, sorted(chosen)


@settings(max_examples=200, deadline=None)
@given(subsets_of_spaces())
def test_subset_diameters_match_pair_oracle(drawn):
    space, idx = drawn
    pts = space.points
    for sub in (idx, [], [space.n - 1]):
        want = max(
            (fraction_dist_sq(space.metric_kind, pts[i], pts[j])
             for i, j in itertools.combinations(sub, 2)),
            default=F(0),
        )
        mask = np.zeros(space.n, dtype=bool)
        mask[sub] = True
        for arg in (sub, space.subset_from_mask(mask)):
            d = diameter(space, arg)
            assert d.value_sq == want and d.empty == (not sub)
            assert d.value == upper_bound_of(want, space.mesh)
            assert d.exact == (exact_sqrt(want) is not None)


def pair_oracle_sq(space, rows):
    """Per row of point indices, the largest scaled squared distance of two
    of its points, from the Fraction coordinates."""
    pts = space.points
    return [
        max(
            (fraction_dist_sq(space.metric_kind, pts[i], pts[j])
             for i, j in itertools.combinations(row.tolist(), 2)),
            default=F(0),
        ) * space.dist_scale_sq
        for row in rows
    ]


@settings(max_examples=200, deadline=None)
@given(subsets_of_spaces(), st.data())
def test_row_diameters_match_pair_oracle(drawn, data):
    # CSR rows: the whole subset, then the subset cut at random places into
    # empty rows, single points, and rows with and without two opposite
    # corners
    space, idx = drawn
    cuts = sorted(data.draw(st.lists(st.integers(0, len(idx)), max_size=3)))
    bounds = [0, *[len(idx) + c for c in [0, *cuts, len(idx)]]]
    indices = np.array(idx + idx, dtype=np.int64)
    got = diameters_sq(space, np.array(bounds, dtype=np.int64), indices)
    rows = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
    assert got.tolist() == pair_oracle_sq(space, rows)
    for worst in set(got.tolist()) - {0}:
        d = diameter_of_sq(space, worst)
        assert d.value_sq * space.dist_scale_sq == worst and not d.empty
        assert d.value == upper_bound_of(d.value_sq, space.mesh)


@pytest.mark.parametrize("dim, metric", [(2, "euclidean"), (3, "euclidean"), (2, "chebyshev")])
def test_row_diameters_of_seeded_clouds(monkeypatch, dim, metric):
    # random rows of a random cloud: most euclidean rows have no two
    # opposite corners and take the pair scan
    rng = np.random.default_rng(dim)
    coords = {tuple(rng.integers(0, 64, dim).tolist()) for _ in range(80)}
    space = SampledSpace([tuple(F(c, 64) for c in p) for p in sorted(coords)], metric, MESH)
    rows = [np.sort(rng.choice(space.n, rng.integers(0, 12), replace=False)) for _ in range(60)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    scans = []
    inner = space_module._pair_scan_sq
    monkeypatch.setattr(space_module, "_pair_scan_sq", lambda *a: scans.append(a) or inner(*a))
    got = diameters_sq(space, indptr, np.concatenate(rows).astype(np.int64))
    assert (len(scans) > 30) == (metric == "euclidean")
    assert got.tolist() == pair_oracle_sq(space, rows)


@pytest.mark.parametrize(
    "points, expected",
    [
        ([(F(0),), (F(1, 2),), (F(1),)], GridStructure(1, F(1, 2))),
        ([(F(0), F(0)), (F(0), F(1)), (F(1), F(0))], None),  # a grid minus a point
        ([(F(0), F(0)), (F(1), F(0))], None),
        ([(a, b) for a in (F(0), F(1)) for b in (F(0), F(1, 2))], None),
        ([(a, b) for a in (F(0), F(1, 2), F(1)) for b in (F(0), F(1))], None),
        ([(F(0),), (F(2, 9),), (F(2, 3),), (F(8, 9),)], CantorStructure(2)),
        ([(F(0),), (F(1, 3),)], None),  # ternary digit 1
        ([(F(0),), (F(2, 9),)], None),  # depth-2 points, but only two
        ([(F(0),), (F(2, 9),), (F(2, 3),), (F(1),)], None),
    ],
)
def test_structure_detection_edge_cases(points, expected):
    assert old_detect_structure(points) == expected
    assert detect_structure(points) == expected
    assert SampledSpace(points, "euclidean", MESH).structure == expected


# -- built-in spaces and the 129 x 129 grid ------------------------------------------


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_spaces_match_table_oracle(name):
    space = builtin_space(name)
    assert_metadata_matches(space, *table_oracle(space))
    assert detect_structure(space.points) == space.structure
    assert space.structure == old_detect_structure(space.points)


def test_grid_129_matches_table_oracle():
    space = build_grid_space(2, F(1, 128))
    assert space.n == 129 * 129
    assert_metadata_matches(space, *table_oracle(space))
    detected = SampledSpace(space.points, "euclidean", space.mesh)
    assert detected.structure == GridStructure(2, F(1, 128)) == space.structure


# -- op-count gate --------------------------------------------------------------------


@pytest.fixture
def row_calls(monkeypatch):
    calls = []
    row = SampledSpace.dist_sq_row

    def counted(self, i):
        calls.append(i)
        return row(self, i)

    monkeypatch.setattr(SampledSpace, "dist_sq_row", counted)
    return calls


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_grid_space(2, F(1, 64)),
        lambda: build_grid_space(3, F(1, 8)),
        lambda: build_grid_space(2, F(1, 16), "chebyshev"),
        lambda: build_grid_space(1, F(1, 1024)),
        lambda: build_cantor_space(10),
        lambda: build_cantor_2adic_space(10),
        lambda: SampledSpace([(F(k * k, 7),) for k in range(50)], "euclidean", MESH),
        lambda: SampledSpace(
            [(F(a), F(b, 3)) for a in range(5) for b in (0, 2, 7)], "chebyshev", MESH
        ),
    ],
    ids=["grid2d", "grid3d", "grid2d_chebyshev", "interval", "cantor", "cantor_2adic",
         "line_1d", "product_chebyshev"],
)
def test_metadata_computes_no_distance_row(build, row_calls):
    space = build()
    space.diameter_upper_bound()
    space.min_positive_gap_sq()
    space.distance_sq(0, space.n - 1)
    assert row_calls == []


def test_unstructured_plane_falls_back_to_rows(row_calls, monkeypatch):
    # no two opposite bounding-box corners, not a product set
    scans = []
    scan = space_module._pair_scan_sq
    monkeypatch.setattr(
        space_module, "_pair_scan_sq", lambda s, arr: scans.append(arr) or scan(s, arr)
    )
    space = SampledSpace([(F(0), F(0)), (F(2), F(1)), (F(1), F(2))], "euclidean", MESH)
    assert diameter(space, space.subset_all()).value_sq == 5
    assert len(scans) == 1 and row_calls == []
    assert space.min_positive_gap_sq() == 2
    assert len(row_calls) == space.n


# -- input validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "points, message",
    [
        ([(F(1, 2),), (F(0),), (0.5,)], "point identifiers (coordinates) must be unique"),
        ([(F(0), F(1)), (F(0), F(1))], "point identifiers (coordinates) must be unique"),
        ([(F(0),), (F(0), F(1))], "all points must share one positive coordinate dimension"),
        ([(), ()], "all points must share one positive coordinate dimension"),
        ([], "a space needs at least one point"),
    ],
)
def test_construction_errors_unchanged(points, message):
    with pytest.raises(InputError) as err:
        SampledSpace(points, "euclidean", MESH)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "points,metric,dtype",
    [
        ([(0, 0), (65535, 0)], "euclidean", np.uint32),  # 65535**2 < 2**32
        ([(0, 0), (65536, 0)], "euclidean", np.int64),
        ([(0, 0), (50000, 50000)], "chebyshev", np.uint32),
        ([(0, 0), (50000, 50000)], "euclidean", np.int64),  # diagonal**2 > 2**32
        ([(0,), (2**62,)], "euclidean", object),
    ],
)
def test_distance_rows_are_uint32_below_2_32(points, metric, dtype):
    # dtype names the case: the row type before rows were computed on demand
    space = SampledSpace(points, metric, F(1))
    for i in range(space.n):
        row = space.dist_sq_row(i)
        want = [space.distance_sq(i, j) * space.dist_scale_sq for j in range(space.n)]
        assert row.tolist() == want


@pytest.mark.parametrize(
    "name,dtype",
    [("unit_square_64", np.uint32), ("unit_interval_1024", np.uint32),
     ("cantor_10", np.uint32), ("cantor_2adic_10", np.uint32)],
)
def test_builtin_distance_row_types(name, dtype):
    # dtype names the case: the row type before rows were computed on demand
    space = builtin_space(name)
    row = space.dist_sq_row(space.n - 1)
    assert np.array_equal(row, space._dist_sq_to(space.n - 1, np.arange(space.n)))
