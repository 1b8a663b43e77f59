"""Differential tests and op-count gates for the fixed cost of a file
command: the space load, the one-box query and the family reports.

`jsonio.space_from_json` type-checks each distinct coordinate and scans
every coordinate's type only when some distinct one is not a text;
`SampledSpace.box` tests a window on one column gather per axis; and
`jsonio.box_family_to_json` writes a family from its integer ends.  The
oracles (`tests/oracles.py`) are the loader that scanned every
coordinate's type, the box query that gathered whole rows, and the report
written from `Box` objects by `region_to_json`.  Spaces, errors, members
and documents must be identical.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covergames.covers as covers_module
from covergames import cli, jsonio
from covergames.covers import Box
from covergames.exact import InputError
from covergames.jsonio import box_family_to_json, region_to_json
from covergames.screenability import brick_refinement
from covergames.space import SampledSpace, build_grid_space
from oracles import box_family, families_json_loop, row_box, scan_space_from_json

GOLDEN = Path(__file__).parent / "golden" / "inputs"
HUGE = F(2**40)  # scaled coordinates this far apart overflow int64 distances


def _workload(name: str, tmp_path) -> dict:
    """The benchmark workload's invocations by label, its files under tmp_path."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return dict(workloads.build(name, 1, tmp_path))


# -- the space load -------------------------------------------------------------------

# JSON values a coordinate may hold: texts good and bad, and every other type;
# True == 1, False == 0 and 1.0 == 1 as dict keys
COORDINATES = [
    "0", "1/2", " 1 ", "2/4", "-1/3", "1", "x", "1/0", "",
    0, 1, -2, 2**70, True, False, 0.0, 1.0, 0.5, None, [1], [], {"1": 2},
]


@st.composite
def space_docs(draw) -> dict:
    """A few points of mixed coordinate values, sometimes ragged or with a
    point that is no array, around a header that may be bad or incomplete."""
    dim = draw(st.integers(1, 2))
    points = draw(
        st.lists(st.lists(st.sampled_from(COORDINATES), min_size=dim, max_size=dim), max_size=6)
    )
    if points and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(points) - 1))
        points[at] = draw(st.sampled_from([points[at][1:], "01", {"0": 1}, 0]))
    doc = {
        "points": points,
        "metric": draw(st.sampled_from(["euclidean", "chebyshev", "cantor_2adic", "l1"])),
        "mesh": draw(st.sampled_from(["1/64", "1/64", "0", 1, True])),
        "label": "sample",
    }
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


def _outcome(load, doc):
    """The space a loader builds, as comparable fields, or its error."""
    try:
        space = load(doc)
    except (InputError, TypeError) as exc:
        return type(exc), str(exc)
    table = space._icoords
    fields = (space.metric_kind, space.mesh, space.label, space.structure)
    return space.scale, table.dtype, table.tolist(), fields


def _doc(points) -> dict:
    return {"points": points, "metric": "euclidean", "mesh": "1/64"}


HIDDEN = [
    [[1, True]],  # a bool behind an equal int
    [[0], [False]],
    [[1, 1.0]],  # a float behind an equal int
    [["1/0", True]],  # a malformed text before a bool
    [["1/2", "1/0"], [True, "0"]],
    [["1/2", [1]]],  # an array coordinate
    [[{"0": 1}, "x"]],
]


@settings(max_examples=400, deadline=None)
@given(space_docs())
@example(_doc([["0", "1/2"], [1, 2**70]]))
@example(_doc([]))
def test_space_loads_as_the_scanning_loader_did(doc):
    assert _outcome(jsonio.space_from_json, doc) == _outcome(scan_space_from_json, doc)


@pytest.mark.parametrize("points", HIDDEN + ["0", [[0], "01"]])
def test_refused_space_exits_2_as_the_scanning_loader_did(tmp_path, points):
    path = str(tmp_path / "space.json")
    doc = _doc(points)
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(InputError) as want:
        cli._parsed("space", path, scan_space_from_json, doc)
    code, report = cli.run(["net", "--space", path, "--epsilon", "1/2"])
    assert code == 2
    assert report["checks"][-1] == {"name": "input", "pass": False, "error": str(want.value)}


def _type_checks(monkeypatch, doc) -> int:
    """The type() calls of one load of the document."""
    calls = []

    def counted(value):
        calls.append(value)
        return type(value)

    monkeypatch.setattr(jsonio, "type", counted, raising=False)
    jsonio.space_from_json(doc)
    monkeypatch.undo()
    return len(calls)


def test_text_space_file_checks_each_distinct_coordinate_once(monkeypatch, tmp_path):
    doc = jsonio.load_json(_workload("grid_files", tmp_path)["refine"][2])
    n, distinct = len(doc["points"]), 129
    # the points value, each point, each distinct coordinate: no scan of
    # the 33,282 coordinates (49,924 checks when every one was checked)
    assert _type_checks(monkeypatch, doc) == 1 + n + distinct
    # an int coordinate may hide a bool or a float: the scan runs, once
    doc["points"][0] = [0, 0]
    assert _type_checks(monkeypatch, doc) == 1 + n + (distinct + 1) + 2 * n


# -- the one-box query ----------------------------------------------------------------


def _shuffled_grid(den: int, huge: bool) -> SampledSpace:
    """The 2-D grid of side 1/den, its points in a seeded random order, or
    scaled past int64 distances (an object table)."""
    grid = build_grid_space(2, F(1, den))
    order = np.random.default_rng(den).permutation(grid.n)
    pts = [grid.points[i] for i in order.tolist()]
    if huge:
        return SampledSpace([tuple(c * HUGE for c in p) for p in pts], "euclidean", HUGE)
    return SampledSpace(pts, "chebyshev", grid.mesh)


@pytest.mark.parametrize("huge", [False, True])
def test_box_on_a_shuffled_grid_matches_dense_membership(huge):
    space = _shuffled_grid(16, huge)
    assert space._fast is not huge
    table = space._icoords.tolist()
    values = sorted({row[0] for row in table})
    ends = [values[0] - 1, *values[::3], values[-1] + 1]
    unsorted = 0
    for a, b in zip(ends, ends[2:]):
        bounds = [(a, b), (ends[1], ends[-2])]
        want = [
            p for p in range(space.n)
            if all(g < x <= l for x, (g, l) in zip(table[p], bounds))
        ]
        got = space.box(bounds)
        assert got.dtype == np.int32 and got.tolist() == want == row_box(space, bounds).tolist()
        if space.windowed:
            window = space.axis0_window(*bounds[0])
            unsorted += bool((window[1:] < window[:-1]).any())
    # the windows of a shuffled table are out of index order: the sort runs
    assert unsorted or huge


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_box_matches_the_row_gather(data):
    # a grid in row order, or a shuffled 2-D grid, int64 or object
    kind = data.draw(st.sampled_from(["euclidean", "chebyshev", "shuffled", "object"]))
    if kind in ("shuffled", "object"):
        space = _shuffled_grid(4, kind == "object")
    else:
        space = build_grid_space(data.draw(st.integers(1, 3)), F(1, 4), kind)
    table = space._icoords.tolist()
    bounds = []
    for k in range(space.coord_dim):
        values = sorted({row[k] for row in table})
        ends = st.sampled_from([values[0] - 1, *values])
        pair = data.draw(st.lists(ends, min_size=2, max_size=2))
        bounds.append(tuple(sorted(pair)))
    got, want = space.box(bounds), row_box(space, bounds)
    assert got.dtype == want.dtype == np.int32 and got.tolist() == want.tolist()


# -- family reports -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_family_report_matches_the_box_objects(data):
    # ends on a unit of 1/16, 1/21 or 3**-45 (rows and a denominator past
    # int64), around 0 or far from it
    dim = data.draw(st.integers(1, 3))
    space = build_grid_space(dim, F(1, 4))
    unit = F(1, data.draw(st.sampled_from([16, 21, 3**45])))
    offset = data.draw(st.sampled_from([F(0), F(-1000, 3), F(2**62)]))
    boxes = []
    for _ in range(data.draw(st.integers(0, 6))):
        lo = [offset + unit * data.draw(st.integers(-20, 20)) for _ in range(dim)]
        hi = [x + unit * data.draw(st.integers(1, 8)) for x in lo]
        boxes.append(Box(space, tuple(lo), tuple(hi)))
    assert box_family_to_json(box_family(space, boxes)) == [region_to_json(b) for b in boxes]


def test_family_report_of_object_rows():
    space = build_grid_space(2, F(1, 4))
    tiny = F(1, 3**45)
    boxes = [Box(space, (tiny, -tiny), (F(1, 2), 3 * tiny)), Box(space, (F(-1),) * 2, (F(0),) * 2)]
    fam = box_family(space, boxes)
    assert fam.lo.dtype == object and fam.den >= 2**63
    assert box_family_to_json(fam) == [region_to_json(b) for b in boxes]


def test_refine_report_matches_the_box_objects(monkeypatch):
    space = jsonio.space_from_json(jsonio.load_json(GOLDEN / "space.json"))
    cover = jsonio.cover_from_json(space, jsonio.load_json(GOLDEN / "cover.json"))
    families = brick_refinement(space, cover)
    built = []
    box = covers_module.BoxFamily.box
    monkeypatch.setattr(covers_module.BoxFamily, "box", lambda *a: built.append(a) or box(*a))
    got = cli._families_json(families)
    assert built == []
    monkeypatch.undo()
    assert got == families_json_loop(families)


def test_refine_builds_no_box_objects(monkeypatch, tmp_path):
    # the grid_files refine: 675 Box objects when its report was written
    # from them
    argv = _workload("grid_files", tmp_path)["refine"]
    built = []
    box = covers_module.BoxFamily.box
    monkeypatch.setattr(covers_module.BoxFamily, "box", lambda *a: built.append(a) or box(*a))
    code, report = cli.run(argv)
    assert code == 0 and len(report["result"]["families"]) == 3
    assert built == []


def test_empty_family_report():
    assert box_family_to_json(box_family(build_grid_space(1, F(1, 4)), [])) == []
