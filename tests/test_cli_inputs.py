"""Malformed input files, run configurations and --two values exit 2 with a
report whose last check is `input`, never with a traceback."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from covergames import cli
from covergames.cli import run
from covergames.space import SampledSpace

INPUTS = Path(__file__).parent / "golden" / "inputs"
SPACE = str(INPUTS / "space.json")
COVERS = str(INPUTS / "covers.json")


def assert_input_error(code: int, doc: dict) -> None:
    assert code == 2
    assert doc["exit_code"] == 2
    assert doc["checks"][-1]["name"] == "input"
    assert not doc["checks"][-1]["pass"]


def write(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "flag,doc,needle",
    [
        ("--cover", {"regions": [{"shape": "ball", "center": 0}]}, "radius"),
        ("--cover", {"space": "grid1d_h8"}, "regions"),
        ("--cover", {"regions": [{"shape": "ball", "center": "a", "radius": "1"}]}, "'a'"),
        ("--space", {"metric": "euclidean", "mesh": "1/16", "points": 5}, "TypeError"),
        # a string or an object is iterable, but it is no coordinate array
        ("--space", {"metric": "euclidean", "mesh": "1/16", "points": ["12", "34"]},
         "TypeError"),
        ("--space", {"metric": "euclidean", "mesh": "1/16", "points": [{"0": 1}]},
         "TypeError"),
        ("--space", {"metric": "euclidean", "mesh": "1/16", "points": "12"}, "TypeError"),
        ("--space", {"metric": "euclidean", "mesh": "1/16", "points": {"12": 1}},
         "TypeError"),
        ("--picks", {"picks": [["x"], [], [], []]}, "TypeError"),
        ("--picks", {"picks": [[1.5], [], [], []]}, "TypeError"),
        ("--cover", [], "AttributeError"),
    ],
    ids=["region_without_radius", "cover_without_regions", "center_not_int",
         "points_not_list", "point_a_string", "point_an_object", "points_a_string",
         "points_an_object", "picks_not_int", "picks_fractional", "cover_not_object"],
)
def test_malformed_input_file_exits_2(tmp_path, flag, doc, needle):
    path = write(tmp_path, "doc.json", doc)
    if flag == "--cover":
        argv = ["refine", "--space", SPACE, "--cover", path]
    elif flag == "--space":
        argv = ["net", "--space", path, "--epsilon", "1/2"]
    else:
        argv = ["check", "--kind", "menger", "--space", SPACE, "--covers", COVERS,
                "--picks", path]
    code, doc = run(argv)
    assert_input_error(code, doc)
    error = doc["checks"][-1]["error"]
    assert f"malformed {flag[2:]} input {path}" in error and needle in error


@pytest.mark.parametrize(
    "config,argv,loads",
    [
        ([], ["net", "--space", SPACE, "--epsilon", "1/2"], False),
        ({"tail_slack": "x"}, ["net", "--space", SPACE, "--epsilon", "1/2"], False),
        ({"point_cap": 4}, ["demo", "--label", "cantor_3", "--horizon", "3"], True),
        ({"tail_slack": -5}, ["scplus", "--space", SPACE, "--covers", COVERS], False),
        (
            {"point_cap": 0},
            ["refine", "--space", SPACE, "--cover", str(INPUTS / "cover.json")],
            False,
        ),
        (
            {"tailslack": -5, "horizn": 99},
            ["scplus", "--space", SPACE, "--covers", COVERS],
            False,
        ),
    ],
    ids=["list", "tail_slack_not_int", "demo_over_point_cap", "negative_tail_slack",
         "zero_point_cap", "unknown_keys"],
)
def test_bad_config_exits_2(monkeypatch, tmp_path, config, argv, loads):
    # only the point cap needs the inputs: every other value is refused first
    calls, load = [], cli._load_inputs
    monkeypatch.setattr(cli, "_load_inputs", lambda *a: calls.append("load") or load(*a))
    path = write(tmp_path, "run.json", config)
    code, doc = run(["--config", path] + argv)
    assert_input_error(code, doc)
    assert calls == (["load"] if loads else [])


def test_unknown_config_key_is_named(tmp_path):
    path = write(tmp_path, "run.json", {"horizon": 3, "horizn": 99})
    code, doc = run(["--config", path, "scplus", "--space", SPACE, "--covers", COVERS])
    assert_input_error(code, doc)
    assert "unknown key 'horizn'" in doc["checks"][-1]["error"]


def test_demo_label_must_be_builtin():
    code, doc = run(["demo", "--label", SPACE, "--horizon", "3"])
    assert_input_error(code, doc)
    assert "unknown built-in space" in doc["checks"][-1]["error"]


@pytest.mark.parametrize("point", ["zz", "999", "-1"])
def test_adversarial_point_out_of_range_exits_2(point):
    code, doc = run(
        ["game", "--space", SPACE, "--covers", COVERS, "--two", f"adversarial:{point}"]
    )
    assert_input_error(code, doc)
    assert "0..8" in doc["checks"][-1]["error"]


@pytest.mark.parametrize(
    "region,needle",
    [
        ({"shape": "ball", "center": 2.7, "radius": "1/4"}, "2.7"),
        ({"shape": "ball", "center": "8", "radius": "1/4"}, "'8'"),
        ({"shape": "co_closed_balls", "balls": [[True, "1/4"]]}, "True"),
        (
            {"shape": "box", "lo": ["-1/16"], "hi": ["17/16"], "lo_closed": ["false"]},
            "'false'",
        ),
    ],
    ids=["center_float", "center_string", "co_ball_center_bool", "closed_flag_string"],
)
def test_malformed_region_field_exits_2(tmp_path, region, needle):
    cover = {"regions": [{"shape": "ball", "center": 4, "radius": "2"}, region]}
    path = write(tmp_path, "cover.json", cover)
    code, doc = run(["refine", "--space", SPACE, "--cover", path])
    assert_input_error(code, doc)
    error = doc["checks"][-1]["error"]
    assert f"malformed cover input {path}" in error and needle in error


def test_horizon_past_the_cap_exits_2_before_any_work(monkeypatch):
    calls = []
    for owner, name in [(cli, "greedy_net"), (SampledSpace, "_dist_sq_to")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
    code, doc = run(["demo", "--label", "unit_interval_8", "--horizon", "40"])
    assert calls == []
    assert_input_error(code, doc)
    assert "horizon cap 20" in doc["checks"][-1]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "--label", "unit_interval_8"],
        ["decompose", "--space", SPACE, "--selections", str(INPUTS / "selections.json")],
        ["haver", "--space", SPACE, "--chain", str(INPUTS / "chain.json"),
         "--epsilons", "1,1/2,1/4"],
        ["game", "--space", SPACE, "--covers", COVERS],
    ],
    ids=["demo", "decompose", "haver", "game"],
)
@pytest.mark.parametrize("horizon", ["0", "-1", "-2"])
def test_horizon_below_1_exits_2_before_any_work(monkeypatch, argv, horizon):
    calls, load = [], cli._load_inputs
    monkeypatch.setattr(cli, "_load_inputs", lambda *a: calls.append("load") or load(*a))
    code, doc = run(argv + ["--horizon", horizon])
    assert calls == []
    assert_input_error(code, doc)
    assert f"--horizon must be >= 1, got {horizon}" in doc["checks"][-1]["error"]


def test_haver_horizon_past_the_epsilons_exits_2(monkeypatch):
    calls, build = [], cli.build_haver_witness
    monkeypatch.setattr(
        cli, "build_haver_witness", lambda *a: calls.append("build") or build(*a)
    )
    code, doc = run(
        ["haver", "--space", SPACE, "--chain", str(INPUTS / "chain.json"),
         "--epsilons", "1,1/4,1/16,1/64", "--horizon", "9"]
    )
    assert calls == []
    assert_input_error(code, doc)
    assert "--horizon 9 exceeds the 4 epsilons" in doc["checks"][-1]["error"]


@pytest.mark.parametrize("epsilons", ["0", "0/5", "-1/2", "1/2,0"])
def test_decompose_nonpositive_epsilon_exits_2_before_any_union(monkeypatch, epsilons):
    # a term <= 0 has no selection stage of smaller radius: exit 1 with a
    # precondition failure when it reached the certificate loop
    calls, union = [], SampledSpace.ball_union
    monkeypatch.setattr(
        SampledSpace, "ball_union", lambda *a: calls.append(a) or union(*a)
    )
    code, doc = run(
        ["decompose", "--space", SPACE, "--selections", str(INPUTS / "selections.json"),
         "--horizon", "2", f"--epsilons={epsilons}"]
    )
    assert calls == []
    assert_input_error(code, doc)
    assert "epsilon must be positive" in doc["checks"][-1]["error"]


def _ball(center, radius="1/4") -> dict:
    return {"shape": "ball", "center": center, "radius": radius}


@pytest.mark.parametrize(
    "selections,error",
    [
        ({"1": [_ball(0, "1/2")]},
         "selection 1 has a ball of radius 1/2, expected (1/2)^(2^1) = 1/4"),
        ({"1": [{"shape": "box", "lo": ["0"], "hi": ["1/2"]}]},
         "selections must consist of balls"),
        ({"1": [_ball(0), _ball(9)]}, "ball center index 9 out of range"),
        # "01" replaced stage 1's list, whose stage held points 7 and 8: exit 0
        ({"1": [_ball(0)], "01": [_ball(8)]}, "selection 1 is given twice"),
    ],
    ids=["wrong_radius", "not_a_ball", "center_out_of_range", "repeated_stage"],
)
def test_malformed_selections_exit_2(tmp_path, selections, error):
    path = write(tmp_path, "selections.json", {"selections": selections})
    code, doc = run(["decompose", "--space", SPACE, "--selections", path, "--horizon", "2"])
    assert_input_error(code, doc)
    assert doc["checks"][-1]["error"] == error


def test_horizon_at_the_cap_still_runs():
    code, doc = run(["demo", "--label", "unit_interval_8", "--horizon", "20"])
    assert code == 0
    assert doc["result"]["horizon"] == 20


@pytest.mark.parametrize(
    "region",
    [
        {"shape": "ball", "center": 0, "radius": True},
        {"shape": "co_closed_balls", "balls": [[0, True]]},
    ],
    ids=["ball_radius_bool", "co_ball_radius_bool"],
)
def test_boolean_radius_exits_2(tmp_path, region):
    # read as 1, the ball misses point 8 at distance exactly 1: exit 1
    path = write(tmp_path, "cover.json", {"regions": [region]})
    code, doc = run(["refine", "--space", "unit_interval_8", "--cover", path])
    assert_input_error(code, doc)
    assert "True" in doc["checks"][-1]["error"]


@pytest.mark.parametrize("kind", ["menger", "hurewicz"])
def test_boolean_picks_exit_2(tmp_path, kind):
    path = write(tmp_path, "picks.json", {"picks": [[True], [True], [True], [True]]})
    argv = ["check", "--kind", kind, "--space", SPACE, "--covers", COVERS, "--picks", path]
    code, doc = run(argv)
    assert_input_error(code, doc)
    error = doc["checks"][-1]["error"]
    assert f"malformed picks input {path}" in error and "True" in error


@pytest.mark.parametrize("index", [True, False])
def test_boolean_chain_index_exits_2(tmp_path, index):
    # mask[True] = True set every point: the chain [[true]] passed with exit 0
    path = write(tmp_path, "chain.json", {"chain": [[index]]})
    argv = ["select", "--space", SPACE, "--chain", path, "--covers", COVERS]
    code, doc = run(argv)
    assert_input_error(code, doc)
    assert "boolean" in doc["checks"][-1]["error"]


@pytest.mark.parametrize("depth", [17, 20])
def test_2adic_space_deeper_than_the_cantor_cap_exits_2(tmp_path, depth):
    # the 2-adic metric tabulates 2**depth values, so a sample deeper than
    # the built-in Cantor cap is refused before the table is built
    doc = {
        "metric": "cantor_2adic",
        "mesh": f"1/{2**depth}",
        "points": [["0/1"], [f"2/{3**depth}"]],
    }
    path = write(tmp_path, "deep.json", doc)
    code, doc = run(["net", "--space", path, "--epsilon", "1/2"])
    assert_input_error(code, doc)
    assert f"depth {depth}, cap 16" in doc["checks"][-1]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scplus", "--space", "unit_interval_8", "--covers", "ONE"],
        ["game", "--space", "unit_interval_8", "--covers", "ONE"],
        ["game", "--space", SPACE, "--covers", COVERS, "--horizon", "1"],
        ["demo", "--label", "unit_square_4", "--horizon", "2"],
    ],
    ids=["scplus", "game", "game_horizon", "demo"],
)
def test_game_shorter_than_a_block_exits_2(tmp_path, argv):
    # ONE has no move on fewer than screen_dim+1 covers: the transcript was
    # empty and the run exited 1 with "not lost by ONE"
    ball = {"shape": "ball", "center": 0, "radius": "2"}
    one = write(tmp_path, "one.json", {"covers": [[ball]]})
    code, doc = run([one if a == "ONE" else a for a in argv])
    assert_input_error(code, doc)
    dim = 2 if argv[0] == "demo" else 1
    assert doc["checks"][-1]["error"] == (
        f"need at least screen_dim+1 = {dim + 1} covers, got {dim}"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["select", "--chain", str(INPUTS / "chain.json")],
        ["scfin"],
        ["fincspace"],
        ["game"],
        ["scplus"],
        ["check", "--kind", "menger", "--picks", "PICKS"],
        ["check", "--kind", "hurewicz", "--picks", "PICKS"],
    ],
    ids=["select", "scfin", "fincspace", "game", "scplus", "menger", "hurewicz"],
)
def test_empty_cover_sequence_exits_2(tmp_path, command):
    # fincspace and both checks exited 1 on "covers": [], as if a search or
    # a selection had failed
    covers = write(tmp_path, "covers.json", {"covers": []})
    picks = write(tmp_path, "picks.json", {"picks": []})
    argv = [picks if a == "PICKS" else a for a in command]
    code, doc = run(argv + ["--space", SPACE, "--covers", covers])
    assert_input_error(code, doc)
    assert "a cover sequence needs at least one cover" in doc["checks"][-1]["error"]
