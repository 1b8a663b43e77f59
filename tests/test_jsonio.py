from __future__ import annotations

import gc
import itertools
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covergames import cli, jsonio
from covergames.covers import Ball, Box, CoClosedBalls, Cover, CoverSeq
from covergames.exact import InputError, parse_rational
from covergames.netting import chain_decomposition
from covergames.space import (
    SampledSpace,
    build_cantor_2adic_space,
    build_cantor_space,
    build_grid_space,
    build_single_point_space,
)
from oracles import cantor_points, space_digest_oracle, space_from_json_oracle

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


class TestSpaceRoundTrip:
    def test_grid_round_trip(self):
        s = build_grid_space(2, F(1, 4))
        doc = jsonio.space_to_json(s)
        assert doc["mesh"] == "3/16"  # (h/2) * (3/2 >= sqrt(2))
        assert doc["points"][0] == ["0/1", "0/1"]
        s2 = jsonio.space_from_json(doc)
        assert s2.points == s.points
        assert s2.metric_kind == s.metric_kind
        assert s2.mesh == s.mesh
        # structure is re-detected from the raw coordinates
        assert s2.screen_dim == 2

    def test_cantor_round_trip(self):
        s = build_cantor_space(4)
        s2 = jsonio.space_from_json(jsonio.space_to_json(s))
        assert s2.points == s.points
        assert s2.screen_dim == 0

    def test_missing_key(self):
        with pytest.raises(InputError):
            jsonio.space_from_json({"points": [["0/1"]]})


# -- the integer-table loader against the per-point Fraction path --------------------


@st.composite
def spelling(draw, x: F) -> str:
    """One of the texts of the rational x: reduced or not, padded, with
    the signs on the denominator."""
    k = draw(st.integers(1, 3))
    p, q = x.numerator * k, x.denominator * k
    forms = [f"{p}/{q}", f" {p}/{q} ", f"{-p}/{-q}"]
    if q == 1:
        forms += [str(p), "-0" if p == 0 else f"{p} "]
    return draw(st.sampled_from(forms))


BIG = [2**62, 2**63, -(2**63) - 1, 2**70]
METRICS = ["euclidean"] * 4 + ["chebyshev"] * 2 + ["cantor_2adic"] * 2 + ["l1"]
MALFORMED = ["1/0", "x", "1/2/3", "", "1.5", 0.5, True, False, None, [1], {"1": 2}]


@st.composite
def coordinate(draw):
    kinds = ["text"] * 30 + ["int"] * 3 + ["big"] * 4 + ["cantor"] * 3 + ["malformed"]
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "big":
        return draw(st.sampled_from(BIG + [f"{b}/3" for b in BIG] + [str(b) for b in BIG]))
    if kind == "cantor":
        # 2 / 3**17 is a middle-thirds endpoint past the depth cap
        ends = ["0", "2/3", "2/9", "8/9", "20/27", "1/3", "1", f"2/{3**17}"]
        return draw(st.sampled_from(ends))
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED))
    x = draw(st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 9])))
    return draw(spelling(x))


@st.composite
def headed(draw, points) -> dict:
    """A space document around the points: mostly well formed, sometimes
    with a bad metric or mesh, a missing key, or ragged points."""
    if points and draw(st.integers(0, 9)) == 0:
        row = draw(st.integers(0, len(points) - 1))
        points[row] = points[row][1:] if draw(st.booleans()) else points[row] + ["0"]
    doc = {
        "points": points,
        "metric": draw(st.sampled_from(METRICS)),
        "mesh": draw(st.sampled_from(["1/64"] * 6 + ["0", "-1/2", 2, "1/0"])),
        "label": draw(st.sampled_from(["", "sample"])),
    }
    if draw(st.integers(0, 19)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def scattered_doc(draw) -> dict:
    """Few points of few distinct values: duplicates that show only after
    normalisation are common."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    return draw(headed([[draw(coordinate()) for _ in range(dim)] for _ in range(n)]))


@st.composite
def lattice_doc(draw) -> dict:
    """A grid {0, 1/m, ..., 1}**dim or a Cantor sample, in a drawn order and
    spelling, sometimes missing a point or with one coordinate moved along
    the lattice, past 1 or below 0."""
    if draw(st.booleans()):
        dim, m = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        pts = list(itertools.product([F(k, m) for k in range(m + 1)], repeat=dim))
    else:
        depth = draw(st.integers(1, 3))
        dim, m = 1, 3**depth
        pts = cantor_points(depth)
    pts = [list(p) for p in draw(st.permutations(pts))]
    if len(pts) > 1 and draw(st.booleans()):
        pts = pts[1:]
    if draw(st.booleans()):
        pts[0][draw(st.integers(0, dim - 1))] = F(draw(st.integers(-m, 2 * m)), m)
    return draw(headed([[draw(spelling(x)) for x in p] for p in pts]))


def _fields(space: SampledSpace) -> dict:
    return {
        "scale": space.scale,
        "dtype": space._icoords.dtype,
        "icoords": space._icoords.tolist(),
        "structure": space.structure,
        "axis_min": space.axis_min,
        "axis_max": space.axis_max,
        "points": space.points,
        "digest": jsonio.digest(jsonio.space_to_json(space)),
    }


@settings(max_examples=400, deadline=None)
@given(st.one_of(scattered_doc(), lattice_doc()))
def test_space_loads_as_the_fraction_path_did(doc):
    try:
        want = space_from_json_oracle(doc)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            jsonio.space_from_json(doc)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    want["dtype"], want["icoords"] = want["icoords"].dtype, want["icoords"].tolist()
    assert _fields(jsonio.space_from_json(doc)) == want
    # the public constructor takes the Fractions to the same table
    mesh = parse_rational(doc["mesh"])
    space = SampledSpace(want["points"], doc["metric"], mesh, label=doc.get("label", ""))
    assert _fields(space) == want


class TestRegionRoundTrip:
    def test_all_shapes(self, interval_8):
        s = interval_8
        regions = [
            Ball(s, 3, F(1, 4)),
            Box(s, (F(0),), (F(3, 5),), lo_closed=(True,)),
            CoClosedBalls(s, ((0, F(1, 8)), (8, F(1, 4)))),
        ]
        for r in regions:
            doc = jsonio.region_to_json(r)
            assert jsonio.region_from_json(s, doc) == r

    def test_spec_shape_names(self, interval_8):
        s = interval_8
        assert jsonio.region_to_json(Ball(s, 0, F(1, 2)))["shape"] == "ball"
        assert jsonio.region_to_json(
            Box(s, (F(1, 8),), (F(7, 8),))
        )["shape"] == "box"
        assert (
            jsonio.region_to_json(CoClosedBalls(s, ((0, F(1, 2)),)))["shape"]
            == "co_closed_balls"
        )

    def test_plain_spec_box_parses(self, interval_8):
        # a box document without end flags (the baseline schema) parses open
        doc = {"shape": "box", "lo": ["1/8"], "hi": ["7/8"]}
        r = jsonio.region_from_json(interval_8, doc)
        assert r.lo_closed == (False,)


class TestCoverAndChainFiles:
    def test_cover_round_trip(self, interval_8):
        s = interval_8
        cover = Cover(s, [Ball(s, 0, F(1, 2)), Ball(s, 8, F(1, 2))])
        doc = jsonio.cover_to_json(cover)
        c2 = jsonio.cover_from_json(s, doc)
        assert c2.regions == cover.regions

    def test_coverseq_round_trip(self, interval_8):
        s = interval_8
        seq = CoverSeq(
            s,
            [
                Cover(s, [Ball(s, 4, F(2))]),
                Cover(s, [Ball(s, 0, F(2))]),
            ],
        )
        doc = jsonio.coverseq_to_json(seq)
        seq2 = jsonio.coverseq_from_json(s, doc)
        assert [c.regions for c in seq2.covers] == [c.regions for c in seq.covers]

    def test_space_label_mismatch(self, interval_8):
        doc = {"space": "another", "regions": []}
        with pytest.raises(InputError):
            jsonio.cover_from_json(interval_8, doc)

    def test_inline_space_accepted(self, interval_8):
        s = interval_8
        doc = {
            "space": jsonio.space_to_json(s),
            "regions": [jsonio.region_to_json(Ball(s, 0, F(1, 2)))],
        }
        cover = jsonio.cover_from_json(s, doc)
        assert len(cover.regions) == 1

    def test_inline_space_mismatch_rejected(self, interval_8):
        other = build_grid_space(1, F(1, 4))
        doc = {"space": jsonio.space_to_json(other), "regions": []}
        with pytest.raises(InputError):
            jsonio.cover_from_json(interval_8, doc)

    def test_chain_round_trip(self, interval_8):
        s = interval_8
        dec = chain_decomposition(
            s, [s.subset_from_indices(range(5)), s.subset_all()]
        )
        doc = jsonio.chain_to_json(dec)
        dec2 = jsonio.chain_from_json(s, doc)
        assert dec2.chain == dec.chain

    def test_selections_round_trip(self, interval_8):
        sel = {1: (0, 8), 3: (4,)}
        doc = jsonio.selections_to_json(sel)
        assert doc["selections"]["3"] == [{"shape": "ball", "center": 4, "radius": "1/256"}]
        assert jsonio.selections_from_json(interval_8, doc) == sel

    def test_golden_selections_file_round_trips(self):
        doc = jsonio.load_json(GOLDEN_INPUTS / "selections.json")
        space = jsonio.space_from_json(jsonio.load_json(GOLDEN_INPUTS / "space.json"))
        assert jsonio.selections_to_json(jsonio.selections_from_json(space, doc)) == doc

    def test_selection_of_wrong_radius_rejected(self, interval_8):
        doc = {"selections": {"2": [{"shape": "ball", "center": 0, "radius": "1/4"}]}}
        with pytest.raises(InputError, match=r"selection 2 has a ball of radius 1/4, "
                           r"expected \(1/2\)\^\(2\^2\) = 1/16"):
            jsonio.selections_from_json(interval_8, doc)

    @pytest.mark.parametrize("key", ["0", "21"])
    def test_selection_past_the_doubling_cap_keeps_its_radius(self, interval_8, key):
        # no doubling radius to compare with: decompose_from_hurewicz
        # refuses the stage as outside the horizon
        doc = {"selections": {key: [{"shape": "ball", "center": 0, "radius": "1/4"}]}}
        assert jsonio.selections_from_json(interval_8, doc) == {int(key): (0,)}

    def test_selection_given_twice_rejected(self, interval_8):
        ball = {"shape": "ball", "center": 0, "radius": "1/4"}
        doc = {"selections": {"1": [ball], "01": [ball]}}
        with pytest.raises(InputError, match="selection 1 is given twice"):
            jsonio.selections_from_json(interval_8, doc)

    def test_picks_round_trip(self):
        picks = [[0, 2], [], [1]]
        assert jsonio.picks_from_json(jsonio.picks_to_json(picks)) == picks

    def test_malformed_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            jsonio.load_json(p)

    @pytest.mark.parametrize(
        "space,cover,code",
        [
            (None, None, 0),
            ("{not json", None, 2),
            ({"metric": "euclidean", "mesh": "1/16", "points": [["0"], ["1/0"]]}, None, 2),
            ({"metric": "euclidean", "points": [["0"], ["1/2"]]}, None, 2),
            (None, {"space": "grid1d_h8"}, 2),
        ],
        ids=["loads", "malformed_json", "bad_coordinate", "space_without_mesh",
             "cover_without_regions"],
    )
    def test_file_load_leaves_the_collector_as_it_found_it(self, tmp_path, space, cover, code):
        # the file command pauses the collector over each input document
        # and restores it, whether the load succeeds or exits 2
        paths = []
        for name, doc in (("space", space), ("cover", cover)):
            path = GOLDEN_INPUTS / f"{name}.json"
            if doc is not None:
                path = tmp_path / f"{name}.json"
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            paths += [f"--{name}", str(path)]
        was = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                got, report = cli.run(["refine", *paths])
                assert gc.isenabled() is enabled
                assert got == code, report["checks"][-1]
        finally:
            (gc.enable if was else gc.disable)()


class TestCanonical:
    def test_digest_stable(self):
        a = jsonio.digest({"b": 1, "a": [1, 2]})
        b = jsonio.digest({"a": [1, 2], "b": 1})
        assert a == b


def _file_space(tmp_path, points=None) -> SampledSpace:
    """A space loaded from a file: by default 3-D chebyshev, with mixed
    denominators, negative coordinates and a label that JSON escapes."""
    doc = {
        "label": 'ü "x" \\ \n\t ✓',
        "metric": "chebyshev",
        "mesh": "1/9",
        "points": points or [["-1/3", "5/7", "2"], ["0", "-0", "1/2"], ["7/3", "-5/7", "1"]],
    }
    path = tmp_path / "space.json"
    jsonio.dump_json(doc, path)
    return jsonio.space_from_json(jsonio.load_json(path))


def _line(n: int) -> SampledSpace:
    """n points k/n of the line, from k = -2."""
    table = np.arange(-2, n - 2, dtype=np.int64).reshape(-1, 1)
    return SampledSpace.from_table(n, table, "euclidean", F(1, 2 * n))


# name -> the space, made in a temporary directory
DIGEST_SPACES = {
    # int64 tables whose values span a few times their size
    "grid_2d": lambda tmp: build_grid_space(2, F(1, 32)),
    "grid_3d": lambda tmp: build_grid_space(3, F(1, 4), "chebyshev", label="grid \"3d\""),
    "negative_2d": lambda tmp: SampledSpace.from_table(
        6, np.array([(i, j) for i in range(-5, 3) for j in range(-9, 4)]), "euclidean", F(1, 12)
    ),
    "single_point": lambda tmp: build_single_point_space(),
    "cantor": lambda tmp: build_cantor_space(6),
    "cantor_2adic": lambda tmp: build_cantor_2adic_space(5),
    # an int64 table whose values span far more than its size
    "wide_int64": lambda tmp: SampledSpace(
        [(F(2**40),), (F(-3, 7),), (F(0),)], "euclidean", F(1, 4)
    ),
    "past_int64": lambda tmp: SampledSpace([(F(2**70, 3),), (F(-1, 2),)], "euclidean", F(1, 4)),
    "file": _file_space,
    "unreduced_file": lambda tmp: _file_space(
        tmp, [["2/4", "-3/6", "4/2"], ["0/5", "6/9", "-10/4"], ["1", "2/4", "-0/3"]]
    ),
    **{f"line_{n}": lambda tmp, n=n: _line(n) for n in (1023, 1024, 1025)},
}


@pytest.mark.parametrize("name", DIGEST_SPACES)
@pytest.mark.parametrize("rows", [1, 7, jsonio.DIGEST_ROWS])
def test_space_digest_is_the_document_digest(monkeypatch, tmp_path, name, rows):
    # the 33 x 33 grid is one full batch of DIGEST_ROWS points and a part;
    # the lines are one point short of a batch, a batch, and one point past it
    space = DIGEST_SPACES[name](tmp_path)
    want = jsonio.digest(jsonio.space_to_json(space))
    assert space_digest_oracle(space) == want
    monkeypatch.setattr(jsonio, "DIGEST_ROWS", rows)
    assert jsonio.space_digest(space) == want


@pytest.mark.parametrize(
    "name,masked",
    [("grid_2d", True), ("negative_2d", True), ("wide_int64", False), ("past_int64", False)],
)
def test_distinct_values_are_the_sorted_ones(tmp_path, name, masked):
    table = DIGEST_SPACES[name](tmp_path)._icoords
    values, inverse = jsonio._distinct(table)
    want, where = np.unique(table, return_inverse=True)
    assert values == want.tolist() and np.array_equal(inverse, where.reshape(table.shape))
    # numbered through a mask of the span, or sorted: a span far wider than
    # the table, or an object table
    span = int(table.max()) - int(table.min()) + 1
    assert (table.dtype == np.int64 and span <= 4 * table.size) is masked


def _fraction_calls(run) -> int:
    """The Fraction constructions while run() runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is F.__new__.__code__:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("name", ["grid_2d", "cantor", "line_1025"])
def test_int64_digest_builds_no_fraction(tmp_path, name):
    space = DIGEST_SPACES[name](tmp_path)
    assert space._icoords.dtype == np.int64
    assert _fraction_calls(lambda: jsonio.space_digest(space)) == 0
    # the probe sees the constructions of the writer it replaced
    assert _fraction_calls(lambda: space_digest_oracle(space)) > 0
