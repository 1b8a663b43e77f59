"""CLI reports stay byte-identical, minus wall_time_s, to the frozen goldens
under tests/golden (see tests/golden/freeze.py for the invocation list)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from covergames import screenability
from covergames.cli import run
from covergames.space import SampledSpace

sys.path.insert(0, str(Path(__file__).parent / "golden"))
import freeze  # noqa: E402


def assert_golden(name: str, doc: dict) -> None:
    assert freeze.render(doc) == freeze.golden_text(name), f"report {name} drifted"


# op-count gates on replays: (screenability function, most calls).  The
# game builds each block of its covers once (14 and 22 calls when every
# round rebuilt the blocks of its move), and the demo reads its first block
# from the covers the game played on (8 and 7 when it built it again)
CALL_GATES = {
    "demo_unit_interval_1024": ("_witness_class", 6),
    "demo_cantor_10": ("_cantor_level_family", 6),
}


@pytest.mark.parametrize(
    "name,argv",
    [inv for inv in freeze.INVOCATIONS if inv[0] not in freeze.SLOW],
    ids=[inv[0] for inv in freeze.INVOCATIONS if inv[0] not in freeze.SLOW],
)
def test_report_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(freeze.HERE)
    gate, calls = CALL_GATES.get(name), []
    if gate:
        func = getattr(screenability, gate[0])
        monkeypatch.setattr(
            screenability, gate[0], lambda *a: calls.append(a) or func(*a)
        )
    # every space is loaded, digested and queried on its integer table: no
    # replay builds the Fraction tuples of SampledSpace.points
    built, tuples = [], SampledSpace._point_tuples
    monkeypatch.setattr(
        SampledSpace, "_point_tuples", lambda self: built.append(self) or tuples(self)
    )
    code, doc = run(argv)
    assert doc["exit_code"] == code
    assert_golden(name, doc)
    if gate:
        assert len(calls) <= gate[1], f"{gate[0]} ran {len(calls)} times"
    assert built == [], f"SampledSpace.points built {len(built)} times"
