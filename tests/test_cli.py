from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from covergames import cli, jsonio
from covergames.cli import main, run
from covergames.covers import Ball, Box, Cover, CoverSeq
from covergames.netting import chain_decomposition
from covergames.registry import builtin_names, builtin_space
from covergames.space import build_grid_space


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small fixture files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    s = build_grid_space(1, F(1, 8))
    jsonio.dump_json(jsonio.space_to_json(s), root / "space.json")

    cover = Cover(s, [Ball(s, 0, F(5, 4)), Ball(s, 8, F(5, 4))])
    jsonio.dump_json(jsonio.cover_to_json(cover), root / "cover.json")

    covers = CoverSeq(s, [cover] * 4)
    jsonio.dump_json(jsonio.coverseq_to_json(covers), root / "covers.json")

    dec = chain_decomposition(s, [s.subset_from_indices(range(5)), s.subset_all()])
    jsonio.dump_json(jsonio.chain_to_json(dec), root / "chain.json")

    selections = {m: range(s.n) for m in (1, 2)}
    jsonio.dump_json(jsonio.selections_to_json(selections), root / "selections.json")

    jsonio.dump_json(jsonio.picks_to_json([[0, 1]] * 4), root / "picks.json")
    jsonio.dump_json(jsonio.picks_to_json([[]] * 4), root / "empty_picks.json")
    return root


def strip_walltime(doc: dict) -> str:
    trimmed = {k: v for k, v in doc.items() if k != "wall_time_s"}
    return json.dumps(trimmed, sort_keys=True)


class TestExitCodes:
    def test_net_passes(self, workdir):
        code, doc = run(["net", "--space", str(workdir / "space.json"), "--epsilon", "1/2"])
        assert code == 0
        assert doc["checks"][0]["pass"]

    def test_net_with_oracle(self, workdir):
        code, doc = run(
            [
                "net",
                "--space", str(workdir / "space.json"),
                "--epsilon", "1/3",
                "--oracle",
            ]
        )
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "greedy_at_least_minimal" in names

    def test_check_menger_empty_picks_exit_1(self, workdir):
        code, doc = run(
            [
                "check",
                "--kind", "menger",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
                "--picks", str(workdir / "empty_picks.json"),
            ]
        )
        assert code == 1
        check = doc["checks"][0]
        assert not check["pass"]
        assert check["failure_point"] == 0

    def test_malformed_json_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, doc = run(
            ["refine", "--space", str(workdir / "space.json"), "--cover", str(bad)]
        )
        assert code == 2

    def test_unknown_space_exit_2(self):
        code, _ = run(["net", "--space", "no_such_space.json", "--epsilon", "1/2"])
        assert code == 2

    def test_invariant_failure_exit_3_with_report(self, monkeypatch, tmp_path):
        def broken(*args):
            raise AssertionError("stage 1 closed delta-balls escape the eps-balls")

        monkeypatch.setattr("covergames.cli.build_haver_witness", broken)
        argv = ["demo", "--label", "unit_interval_8", "--horizon", "3"]
        code, doc = run(argv)
        assert code == 3 and doc["exit_code"] == 3
        assert doc["checks"][-1] == {
            "name": "invariant",
            "pass": False,
            "error": "stage 1 closed delta-balls escape the eps-balls",
        }
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 3
        assert json.loads(out.read_text())["checks"][-1]["name"] == "invariant"


class TestSubcommands:
    def test_decompose(self, workdir):
        code, doc = run(
            [
                "decompose",
                "--space", str(workdir / "space.json"),
                "--selections", str(workdir / "selections.json"),
                "--horizon", "2",
                "--epsilons", "1/2",
            ]
        )
        assert code == 0
        assert doc["result"]["chain"][-1] == list(range(9))

    def test_select(self, workdir):
        code, doc = run(
            [
                "select",
                "--space", str(workdir / "space.json"),
                "--chain", str(workdir / "chain.json"),
                "--covers", str(workdir / "covers.json"),
            ]
        )
        assert code == 0
        assert len(doc["result"]["picks"]) == 4  # one pick list per cover

    def test_refine(self, workdir):
        code, doc = run(
            [
                "refine",
                "--space", str(workdir / "space.json"),
                "--cover", str(workdir / "cover.json"),
            ]
        )
        assert code == 0
        assert doc["checks"][1]["count"] == 2

    @pytest.mark.parametrize("coord", ["5", str(2**70)])
    def test_refine_one_point_past_int64(self, tmp_path, coord):
        # at 2**70 the table holds Python ints, and the point-isolating box
        # ends must select against them unclamped
        space = tmp_path / "space.json"
        space.write_text(json.dumps(
            {"label": "one", "metric": "euclidean", "mesh": "1", "points": [[coord]]}
        ))
        cover = tmp_path / "cover.json"
        cover.write_text(json.dumps(
            {"regions": [{"shape": "ball", "center": 0, "radius": "1"}]}
        ))
        code, doc = run(["refine", "--space", str(space), "--cover", str(cover)])
        assert code == 0, doc["checks"]
        # the Lebesgue number is 1: the point's box is (x - 1/2, x + 1/2)
        box = doc["result"]["families"][0][0]
        assert box["lo"] == [f"{2 * int(coord) - 1}/2"]

    def test_scfin_and_fincspace(self, workdir):
        code, doc = run(
            [
                "scfin",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
            ]
        )
        assert code == 0
        code, doc = run(
            [
                "fincspace",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
            ]
        )
        assert code == 0
        assert doc["result"]["n"] == 2

    def test_fincspace_without_a_witness(self, tmp_path):
        # two boxes crossing on [2/5, 3/5] at horizon 1: no single brick
        # class covers the 1/64 grid
        s = build_grid_space(1, F(1, 64))
        crossing = Cover(
            s,
            [
                Box(s, (F(0),), (F(3, 5),), lo_closed=(True,)),
                Box(s, (F(2, 5),), (F(1),), hi_closed=(True,)),
            ],
        )
        jsonio.dump_json(jsonio.space_to_json(s), tmp_path / "space.json")
        covers = jsonio.coverseq_to_json(CoverSeq(s, [crossing]))
        jsonio.dump_json(covers, tmp_path / "covers.json")
        code, doc = run(
            [
                "fincspace",
                "--space", str(tmp_path / "space.json"),
                "--covers", str(tmp_path / "covers.json"),
            ]
        )
        assert code == 1 and doc["exit_code"] == 1
        assert doc["checks"] == [
            {"name": "witness_found", "pass": False, "candidates_refuted": 204}
        ]
        assert doc["result"] == {"no_witness_at_horizon": 1}

    def test_game_and_scplus(self, workdir):
        code, doc = run(
            [
                "game",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
                "--two", "covering",
            ]
        )
        assert code == 0
        code, doc = run(
            [
                "scplus",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
            ]
        )
        assert code == 0
        assert doc["result"]["tail_index_max"] == 1

    def test_game_adversarial(self, workdir):
        code, doc = run(
            [
                "game",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
                "--two", "adversarial:4",
            ]
        )
        assert code == 1  # ONE is not lost: the check fails with witnesses

    def test_haver(self, workdir, tmp_path):
        s = build_grid_space(1, F(1, 8))
        dec = chain_decomposition(s, [s.subset_all()] * 3)
        chain_path = tmp_path / "full_chain.json"
        jsonio.dump_json(jsonio.chain_to_json(dec), chain_path)
        code, doc = run(
            [
                "haver",
                "--space", str(workdir / "space.json"),
                "--chain", str(chain_path),
                "--epsilons", "1,1/4,1/16",
            ]
        )
        assert code == 0
        assert doc["result"]["deltas"][0] == "3/8"

    def test_demo_builtin(self):
        code, doc = run(["demo", "--label", "cantor_3", "--horizon", "3"])
        assert code == 0

    def test_demo_single_point(self):
        code, doc = run(["demo", "--label", "single_point", "--horizon", "4"])
        assert code == 0

    def test_demo_cantor_10(self):
        code, doc = run(["demo", "--label", "cantor_10", "--horizon", "6"])
        assert code == 0
        assert all(c["pass"] for c in doc["checks"])

    def test_demo_unit_square(self):
        # the slowest demo: the full pipeline on 4225 points with an honest
        # 3-family first block
        code, doc = run(["demo", "--label", "unit_square_64", "--horizon", "6"])
        assert code == 0
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["first_block_family_count"]["families"] == 3
        from test_golden import assert_golden

        assert_golden("demo_unit_square_64", doc)

    def test_builtin_space_names_resolve(self):
        for name in builtin_names():
            assert builtin_space(name).n >= 1

    def test_point_cap_env_respected(self, monkeypatch):
        monkeypatch.setenv("COVER_GAMES_POINT_CAP", "100")
        from covergames.exact import ResourceError
        from covergames.space import build_grid_space

        with pytest.raises(ResourceError):
            build_grid_space(2, F(1, 32))  # 33^2 = 1089 > 100

    def test_config_overrides(self, workdir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"tail_slack": 2}')
        code, doc = run(
            [
                "--config", str(cfg),
                "game",
                "--space", str(workdir / "space.json"),
                "--covers", str(workdir / "covers.json"),
            ]
        )
        # tail_slack 2 on a 4-cover game: rounds - 2 < 1, so ONE is not lost
        assert code == 1

    def test_config_point_cap_blocks_large_space(self, workdir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"point_cap": 4}')
        code, doc = run(
            [
                "--config", str(cfg),
                "net",
                "--space", str(workdir / "space.json"),  # 9 points > 4
                "--epsilon", "1/2",
            ]
        )
        assert code == 2

    def test_bad_config_rejected(self, workdir, tmp_path):
        # horizon and margin are no config keys: --horizon and the mesh set them
        cfg = tmp_path / "run.json"
        for key, value in (("horizon", 3), ("margin", "1/4")):
            cfg.write_text(json.dumps({key: value}))
            code, doc = run(
                [
                    "--config", str(cfg),
                    "net",
                    "--space", str(workdir / "space.json"),
                    "--epsilon", "1/2",
                ]
            )
            assert code == 2
            assert f"unknown key {key!r}" in doc["checks"][-1]["error"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_builder",
        [
            lambda w: ["net", "--space", str(w / "space.json"), "--epsilon", "1/3"],
            lambda w: [
                "refine",
                "--space", str(w / "space.json"),
                "--cover", str(w / "cover.json"),
            ],
            lambda w: [
                "scplus",
                "--space", str(w / "space.json"),
                "--covers", str(w / "covers.json"),
            ],
        ],
    )
    def test_byte_identical_reports(self, workdir, argv_builder):
        argv = argv_builder(workdir)
        _, doc1 = run(argv)
        _, doc2 = run(argv)
        assert strip_walltime(doc1) == strip_walltime(doc2)


def test_one_parser_serves_calls_after_a_usage_error(workdir, capsys):
    # the parser is built once per process; a usage error must leave it as
    # a fresh process finds it
    space = str(workdir / "space.json")
    calls = [
        ["net", "--space", space],  # --epsilon missing
        ["net", "--space", space, "--epsilon", "1/3", "--oracle"],
        ["nosuch"],
        ["scplus", "--space", space, "--covers", str(workdir / "covers.json")],
        ["demo", "--label", "unit_interval_8", "--horizon", "2"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "covergames.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        code, doc = run(argv)
        assert main(argv) == code == fresh.returncode
        out = capsys.readouterr().out
        if doc["command"] == "usage":
            assert code == 2 and out == fresh.stdout == ""
        else:
            want = strip_walltime(json.loads(fresh.stdout))
            assert strip_walltime(doc) == strip_walltime(json.loads(out)) == want


def test_the_parser_is_built_once_per_process(monkeypatch, workdir):
    built = []
    inner = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or inner())
    cli._parser.cache_clear()
    try:
        assert run(["nosuch"])[0] == 2
        assert run(["net", "--space", str(workdir / "space.json"), "--epsilon", "1/2"])[0] == 0
        assert main(["net", "--space", "single_point", "--epsilon", "1/2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
