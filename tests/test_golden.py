"""CLI reports stay byte-identical, minus wall_time_s, to the frozen goldens
under tests/golden (see tests/golden/freeze.py for the invocation list)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from covergames.cli import run

sys.path.insert(0, str(Path(__file__).parent / "golden"))
import freeze  # noqa: E402


def assert_golden(name: str, doc: dict) -> None:
    assert freeze.render(doc) == freeze.golden_text(name), f"report {name} drifted"


@pytest.mark.parametrize(
    "name,argv",
    [inv for inv in freeze.INVOCATIONS if inv[0] not in freeze.SLOW],
    ids=[inv[0] for inv in freeze.INVOCATIONS if inv[0] not in freeze.SLOW],
)
def test_report_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(freeze.HERE)
    code, doc = run(argv)
    assert doc["exit_code"] == code
    assert_golden(name, doc)
