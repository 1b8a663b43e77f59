"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/test_bench.py

They run the eight `check` reports of grid_files at seed 0 (a few seconds)
and score them the way run.py does, and check that the reference clock
samples the host's speed while Python code runs.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import answers  # noqa: E402
import workloads  # noqa: E402
from covergames.cli import run  # noqa: E402


@pytest.fixture(scope="module")
def checks(tmp_path_factory):
    """Answers of grid_files' check reports at seed 0, and their frozen
    counterparts."""
    invocations = workloads.build("grid_files", 0, tmp_path_factory.mktemp("grid"))
    got = {}
    for label, argv in invocations:
        if label.startswith("check:"):
            code, doc = run(argv)
            got[label] = answers.extract(code, doc)
    frozen = json.loads((HERE / "frozen.json").read_text())["grid_files"]["0"]
    return got, frozen


def test_frozen_answers_match(checks):
    got, frozen = checks
    assert answers.count_failures([got], frozen) == (8, 0, [])


def test_corrupted_frozen_answer_counts_as_failure(checks):
    got, frozen = checks
    bad = copy.deepcopy(frozen)
    label = "check:menger:0"
    bad[label]["checks.menger.pass"] = not bad[label]["checks.menger.pass"]
    attempted, failed, notes = answers.count_failures([got, got], bad)
    assert (attempted, failed) == (16, 2)
    assert failed / attempted > 0
    assert all(label in note for note in notes)


def test_new_report_fields_are_not_failures(checks):
    got, frozen = checks
    grown = {label: dict(ans, **{"checks.menger.counters": {"masks": 4}}) for label, ans in got.items()}
    assert answers.count_failures([grown], frozen)[1] == 0


def test_raised_call_is_a_failure(checks):
    got, frozen = checks
    broken = dict(got, **{"check:hurewicz:1": {"raised": "ValueError: boom"}})
    assert answers.count_failures([broken], frozen)[1] == 1


def test_ref_clock_samples_and_advances():
    from refclock import RefClock

    clock = RefClock()
    clock.start()
    try:
        t0 = clock.now()
        deadline = perf_counter() + 0.5
        while perf_counter() < deadline:
            pass
        elapsed = clock.now() - t0
    finally:
        clock.stop()
    assert clock.samples >= 3
    assert elapsed > 0
