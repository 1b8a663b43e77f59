"""Golden CLI reports: the invocation list, and the script that refreezes them.

    PYTHONPATH=src python tests/golden/freeze.py

rewrites the input files under ``inputs/`` and one report per invocation
under ``reports/``.  Every invocation runs with this directory as the
working directory, so ``argv`` (which the report echoes) holds relative
paths.  A frozen report is the report minus ``wall_time_s``, dumped with
sorted keys.  ``tests/test_golden.py`` compares each run against its file;
a change that alters reports on purpose refreezes with this script and says
so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REPORTS = HERE / "reports"

_space, _cover, _covers, _chain, _selections, _picks, _empty, _bad = (
    f"inputs/{name}.json"
    for name in (
        "space", "cover", "covers", "chain", "selections", "picks",
        "empty_picks", "bad",
    )
)

# (golden name, argv); the criterion-9 invocations first
INVOCATIONS = [
    ("net", ["net", "--space", _space, "--epsilon", "1/2", "--oracle"]),
    (
        "decompose",
        [
            "decompose", "--space", _space, "--selections", _selections,
            "--horizon", "2", "--epsilons", "1/2,1/4",
        ],
    ),
    ("select", ["select", "--space", _space, "--chain", _chain, "--covers", _covers]),
    ("refine", ["refine", "--space", _space, "--cover", _cover]),
    ("scfin", ["scfin", "--space", _space, "--covers", _covers]),
    ("fincspace", ["fincspace", "--space", _space, "--covers", _covers]),
    (
        "haver",
        ["haver", "--space", _space, "--chain", _chain, "--epsilons", "1,1/4,1/16,1/64"],
    ),
    ("game", ["game", "--space", _space, "--covers", _covers, "--two", "covering"]),
    ("scplus", ["scplus", "--space", _space, "--covers", _covers]),
    (
        "check_menger",
        ["check", "--kind", "menger", "--space", _space, "--covers", _covers, "--picks", _picks],
    ),
    ("demo_cantor_3", ["demo", "--label", "cantor_3", "--horizon", "3"]),
    (
        "check_hurewicz",
        ["check", "--kind", "hurewicz", "--space", _space, "--covers", _covers, "--picks", _picks],
    ),
    (
        "check_menger_empty_picks",
        ["check", "--kind", "menger", "--space", _space, "--covers", _covers, "--picks", _empty],
    ),
    (
        "game_adversarial",
        ["game", "--space", _space, "--covers", _covers, "--two", "adversarial:4"],
    ),
    ("refine_malformed_json", ["refine", "--space", _space, "--cover", _bad]),
    ("net_unknown_space", ["net", "--space", "no_such_space.json", "--epsilon", "1/2"]),
    ("demo_unit_interval_1024", ["demo", "--label", "unit_interval_1024", "--horizon", "6"]),
    ("demo_cantor_10", ["demo", "--label", "cantor_10", "--horizon", "6"]),
    ("demo_unit_square_64", ["demo", "--label", "unit_square_64", "--horizon", "6"]),
]

# compared by tests/test_cli.py::test_demo_unit_square, which already runs it
SLOW = {"demo_unit_square_64"}


def render(doc: dict) -> str:
    """The frozen text of a report: every field but wall_time_s."""
    trimmed = {k: v for k, v in doc.items() if k != "wall_time_s"}
    return json.dumps(trimmed, sort_keys=True, indent=2) + "\n"


def golden_text(name: str) -> str:
    return (REPORTS / f"{name}.json").read_text()


def write_inputs() -> None:
    """The criterion-9 input files, plus the empty picks and a malformed file."""
    from covergames import jsonio
    from covergames.covers import Ball, Cover, CoverSeq
    from covergames.netting import chain_decomposition
    from covergames.space import build_grid_space

    INPUTS.mkdir(exist_ok=True)
    s = build_grid_space(1, F(1, 8))
    jsonio.dump_json(jsonio.space_to_json(s), INPUTS / "space.json")
    cover = Cover(s, [Ball(s, 0, F(5, 4)), Ball(s, 8, F(5, 4))])
    jsonio.dump_json(jsonio.cover_to_json(cover), INPUTS / "cover.json")
    covers = CoverSeq(s, [cover] * 4)
    jsonio.dump_json(jsonio.coverseq_to_json(covers), INPUTS / "covers.json")
    dec = chain_decomposition(s, [s.subset_all()] * 4)
    jsonio.dump_json(jsonio.chain_to_json(dec), INPUTS / "chain.json")
    selections = {m: range(s.n) for m in (1, 2)}
    jsonio.dump_json(jsonio.selections_to_json(selections), INPUTS / "selections.json")
    jsonio.dump_json(jsonio.picks_to_json([[0, 1]] * 4), INPUTS / "picks.json")
    jsonio.dump_json(jsonio.picks_to_json([[]] * 4), INPUTS / "empty_picks.json")
    (INPUTS / "bad.json").write_text("{oops")


def main() -> None:
    from covergames.cli import run

    write_inputs()
    REPORTS.mkdir(exist_ok=True)
    os.chdir(HERE)
    for name, argv in INVOCATIONS:
        code, doc = run(argv)
        (REPORTS / f"{name}.json").write_text(render(doc))
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    main()
