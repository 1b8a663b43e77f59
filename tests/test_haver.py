from __future__ import annotations

from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.haver as haver_module
import covergames.space as space_module
from covergames.cli import run
from covergames.covers import (
    Ball,
    CoClosedBalls,
    covers_check,
    region_mask,
)
from covergames.exact import CheckFailure, InputError
from covergames.game import _usable_blocks
from covergames.haver import (
    ClaimHorizonError,
    ClaimTrace,
    build_haver_witness,
    normalize_epsilons,
    build_stage_covers,
)
from covergames.jsonio import chain_from_json, load_json, space_from_json
from covergames.netting import (
    chain_decomposition,
    decompose_from_hurewicz,
    greedy_net,
)
from covergames.registry import builtin_space
from covergames.space import (
    build_grid_space,
    diameter,
    doubling_delta,
    paired_delta,
)
from oracles import (
    analytic_contains,
    diameter_bound_loop,
    pairwise_disjoint_check,
    replay_claim,
)


def staircase_chain(s, horizon, quarter=4):
    stages = []
    for n in range(1, horizon + 1):
        hi = min(F(1), F(n, quarter))
        stages.append(s.subset_from_mask(np.array([p[0] <= hi for p in s.points])))
    return chain_decomposition(s, stages)


class TestNormalize:
    def test_already_strict_untouched(self):
        sched = normalize_epsilons([F(1), F(1, 4), F(1, 16)])
        assert sched.values == (F(1), F(1, 4), F(1, 16))

    def test_constant_becomes_quarters(self):
        sched = normalize_epsilons([F(1), F(1), F(1)])
        assert sched.values == (F(1), F(1, 4), F(1, 16))

    def test_half_eighth_untouched(self):
        sched = normalize_epsilons([F(1, 2), F(1, 8)])
        assert sched.values == (F(1, 2), F(1, 8))

    def test_boundary_case_halving_not_strict(self):
        sched = normalize_epsilons([F(1), F(1, 2)])
        assert sched.values == (F(1), F(1, 4))

    @given(
        st.lists(
            st.fractions(min_value="1/64", max_value=4), min_size=1, max_size=8
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_output_always_strict_and_dominated(self, raw):
        sched = normalize_epsilons(raw)
        for n in range(1, sched.horizon):
            assert sched.value(n + 1) < sched.value(n) / 2
        for n in range(1, sched.horizon + 1):
            assert sched.value(n) <= raw[n - 1]


class TestStageCovers:
    def test_delta_spot_values(self):
        assert paired_delta(F(1), 1) == F(3, 8)
        assert paired_delta(F(1, 4), 2) == F(15, 128)

    def test_full_chain_cover_structure(self, interval_64):
        s = interval_64
        chain = chain_decomposition(s, [s.subset_all()] * 2)
        sched = normalize_epsilons([F(1), F(1, 4)])
        sc = build_stage_covers(s, chain, sched)
        assert sc.deltas[0] == F(3, 8)
        cover = sc.covers.cover(1)
        # the complement region is last and carries the delta radii
        comp = cover.regions[sc.complement_index[0]]
        assert isinstance(comp, CoClosedBalls)
        assert all(r == F(3, 8) for _, r in comp.balls)
        assert covers_check(cover).ok
        # the stage never meets the complement piece
        assert not bool(
            np.any(region_mask(comp) & chain.stage(1).mask())
        )

    def test_deltas_strictly_below_half_eps(self, interval_64):
        s = interval_64
        chain = chain_decomposition(s, [s.subset_all()] * 4)
        sched = normalize_epsilons([F(2, 3) ** n for n in range(1, 5)])
        sc = build_stage_covers(s, chain, sched)
        for n in range(1, 5):
            assert sc.deltas[n - 1] < sched.value(n) / 2

    def test_unnormalized_rejected(self, interval_64):
        s = interval_64
        chain = chain_decomposition(s, [s.subset_all()] * 2)
        with pytest.raises(InputError):
            build_stage_covers(
                s, chain, __import__("covergames").epsilon_schedule([F(1), F(1, 2)])
            )


class TestWitness:
    def test_single_point_space(self, point_space):
        s = point_space
        chain = chain_decomposition(s, [s.subset_all()] * 3)
        sched = normalize_epsilons([F(1), F(1, 4), F(1, 16)])
        w = build_haver_witness(s, chain, sched)
        total = sum(len(f) for f in w.families)
        assert total >= 1
        assert w.covering_witness[0][0] >= 1

    def test_cantor_full_chain(self, cantor_5):
        s = cantor_5
        horizon = 6
        chain = chain_decomposition(s, [s.subset_all()] * horizon)
        sched = normalize_epsilons([F(1, 4) ** n for n in range(1, horizon + 1)])
        w = build_haver_witness(s, chain, sched)
        self._assert_witness_invariants(s, w, sched)

    def test_interval_staircase(self, interval_64):
        s = interval_64
        horizon = 8
        chain = staircase_chain(s, horizon)
        sched = normalize_epsilons([F(1, 4) ** n for n in range(1, horizon + 1)])
        w = build_haver_witness(s, chain, sched)
        self._assert_witness_invariants(s, w, sched)
        # the frontier point enters the chain at stage 4 and its trace says so
        frontier = s.index_of((F(1),))
        trace = w.traces[frontier]
        assert trace.entry_stage == 4
        assert trace.stage >= 4

    @pytest.mark.parametrize("top, width", [(F(4), 2), (F(1, 4), None)])
    def test_first_block_counted_and_blocks_dropped(self, interval_64, top, width):
        # eps_1 = 4 leaves room for bricks in block 1..2; eps_1 = 1/4 leaves
        # none below the grid spacing, and the game falls back to
        # point-isolating boxes there
        s = interval_64
        chain = chain_decomposition(s, [s.subset_all()] * 4)
        sched = normalize_epsilons([top * F(1, 4) ** n for n in range(4)])
        w = build_haver_witness(s, chain, sched)
        assert w.first_block_families == width
        assert w.stage_covers.covers._blocks == {}

    def _assert_witness_invariants(self, s, w, sched):
        union = np.zeros(s.n, dtype=bool)
        for n, fam in enumerate(w.families, start=1):
            assert pairwise_disjoint_check(fam.regions, s.mesh).ok
            eps = sched.value(n)
            for region in fam.regions:
                dia = diameter(s, s.subset_from_mask(region_mask(region)))
                assert dia.value_sq < eps * eps
            union |= fam.union_mask()
        assert union.all()
        # covering witness points at containing regions
        for p, (n, ridx) in enumerate(w.covering_witness):
            assert region_mask(w.families[n - 1].regions[ridx])[p]

    def test_filter_soundness(self, cantor_5):
        s = cantor_5
        horizon = 4
        chain = chain_decomposition(s, [s.subset_all()] * horizon)
        sched = normalize_epsilons([F(1, 4) ** n for n in range(1, horizon + 1)])
        w = build_haver_witness(s, chain, sched)
        for n, fam in enumerate(w.families, start=1):
            cover = w.stage_covers.covers.cover(n)
            for region, widx in zip(fam.regions, fam.witness):
                ball = cover.regions[widx]
                assert isinstance(ball, Ball)
                assert ball.radius == sched.value(n) / 2
                assert analytic_contains(region, ball)

    def test_monotonicity_precondition(self, interval_64):
        s = interval_64
        good = staircase_chain(s, 4)
        # break monotonicity by hand
        bad_chain = list(good.chain)
        bad_chain[2], bad_chain[1] = bad_chain[1], bad_chain[2]
        from covergames.netting import SigmaDecomposition

        bad = SigmaDecomposition(s, tuple(bad_chain), {}, good.tail_start)
        sched = normalize_epsilons([F(1, 4) ** n for n in range(1, 5)])
        with pytest.raises(CheckFailure):
            build_haver_witness(s, bad, sched)

    def test_horizon_exhausted_error(self, interval_64):
        # a chain entering only at the last stage cannot be replayed: no
        # materialized block starts at or past it
        s = interval_64
        horizon = 3
        chain = staircase_chain(s, horizon, quarter=3)
        sched = normalize_epsilons([F(1, 4) ** n for n in range(1, horizon + 1)])
        with pytest.raises(ClaimHorizonError):
            build_haver_witness(s, chain, sched)


@pytest.mark.parametrize("label,horizon", [("unit_square_8", "6"), ("cantor_3", "3")])
def test_demo_region_diameters_take_closed_forms(monkeypatch, label, horizon):
    # Haver's kept regions are grid and Cantor blocks: the diameter never
    # scans pairs (10 and 4 regions of two or more points did when it did)
    scans = []
    monkeypatch.setattr(space_module, "_pair_scan_sq", lambda *a: scans.append(a))
    code, doc = run(["demo", "--label", label, "--horizon", horizon])
    assert code == 0 and scans == []


# -- the assembly on arrays against its per-member and per-point loops --------------

GOLDEN = Path(__file__).parent / "golden" / "inputs"


def _replayed(monkeypatch):
    """The arguments of every claim replay build_haver_witness runs."""
    calls = []
    inner = haver_module._replay_claims

    def recorded(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(haver_module, "_replay_claims", recorded)
    return calls


def _witness_cases():
    """(space, chain, schedule) of the golden haver report, the demo's
    pipeline on small built-ins, and staircase chains."""
    space = space_from_json(load_json(GOLDEN / "space.json"))
    chain = chain_from_json(space, load_json(GOLDEN / "chain.json"))
    yield space, chain, normalize_epsilons([F(1), F(1, 4), F(1, 16), F(1, 64)])
    for label in ("unit_interval_64", "unit_square_8", "cantor_5"):
        s = builtin_space(label)
        full = s.subset_all()
        horizon = 6
        dec = decompose_from_hurewicz(
            s,
            {m: greedy_net(s, full, doubling_delta(m)).centers for m in range(1, horizon + 1)},
            horizon,
        )
        diam = max(s.diameter_upper_bound(), s.mesh)
        yield s, dec, normalize_epsilons(
            [16 * diam * F(15, 32) ** (n - 1) for n in range(1, horizon + 1)]
        )
    s = build_grid_space(1, F(1, 64))
    for quarter in (2, 4):
        yield s, staircase_chain(s, 8, quarter), normalize_epsilons(
            [F(1, 4) ** n for n in range(1, 9)]
        )


def test_witness_matches_the_member_and_point_loops(monkeypatch):
    for space, chain, sched in _witness_cases():
        calls = _replayed(monkeypatch)
        w = build_haver_witness(space, chain, sched)
        for n, fam in enumerate(w.families, start=1):
            assert w.diam_bounds[n - 1] == diameter_bound_loop(fam, n, sched.value(n))
        ((entry, usable, blocks, owners, horizon),) = calls
        want = [
            replay_claim(p, int(entry[p]), usable, blocks, owners, horizon)
            for p in range(space.n)
        ]
        assert list(w.traces) == want and len(w.traces) == space.n
        assert w.traces[-1] == want[-1] and w.traces[3:9:2] == want[3:9:2]
        assert w.covering_witness.tolist() == [[t.stage, t.region_index] for t in want]


def _replay_outcome(replay, *args):
    try:
        return replay(*args)
    except CheckFailure as exc:
        return type(exc), str(exc), exc.witness


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_replay_matches_the_point_loop(data):
    # random owner tables: regions, dropped regions (-2) and none (-1) per
    # stage; entry stages up to past the last block
    horizon = data.draw(st.integers(1, 7))
    cuts = data.draw(st.lists(st.integers(1, horizon + 2), min_size=1, max_size=5))
    blocks = tuple(sorted(set(cuts)))
    usable = _usable_blocks(blocks, horizon)
    n = data.draw(st.integers(1, 12))
    owner = st.sampled_from([-1, -1, -1, -2, 0, 1, 2])
    owners = [
        np.array(data.draw(st.lists(owner, min_size=n, max_size=n)), dtype=np.int64)
        for _ in range(horizon)
    ]
    entry = np.array(
        data.draw(st.lists(st.integers(1, horizon + 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    args = (usable, blocks, owners, horizon)
    got = _replay_outcome(haver_module._replay_claims, entry, *args)
    want = None
    for p in range(n):
        trace = _replay_outcome(replay_claim, p, int(entry[p]), *args)
        if not isinstance(trace, ClaimTrace):
            want = trace
            break
    if want is not None:
        assert got == want
        return
    witness, spans = got
    traces = [replay_claim(p, int(entry[p]), *args) for p in range(n)]
    assert witness.tolist() == [[t.stage, t.region_index] for t in traces]
    assert spans.tolist() == [list(t.block) for t in traces]


def test_replay_failures_name_the_lowest_failing_point():
    # one table per failure path: point 1 fails each way, point 3 another
    usable, blocks, horizon = [(2, 3), (3, 5)], (2, 3, 5), 4
    none, dropped = np.full(4, -1), np.array([0, -2, 0, -2])
    cases = [
        ([1, 1, 1, 1], [none, dropped, dropped, dropped], CheckFailure, "did not survive"),
        ([1, 1, 1, 1], [none, np.array([0, -1, 0, -2])] + [none] * 2, CheckFailure,
         "no eligible block"),
        ([1, 4, 1, 4], [none, np.array([0, -1, 0, -1])] + [none] * 2, ClaimHorizonError,
         "are exhausted"),
    ]
    for entry, owners, kind, message in cases:
        entry = np.array(entry, dtype=np.int64)
        args = (usable, blocks, owners, horizon)
        with pytest.raises(kind, match=message) as got:
            haver_module._replay_claims(entry, *args)
        with pytest.raises(kind) as want:
            replay_claim(1, int(entry[1]), *args)
        assert type(got.value) is kind
        assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)


def test_demo_builds_no_trace_and_one_diameter_per_distinct_value(monkeypatch):
    traces = _count_inits(monkeypatch, ClaimTrace)
    pairs = _count_calls(monkeypatch, space_module, "_pair_scan_sq")
    per_stage, member_scans = [], []
    inner = haver_module.diameters_sq

    def per_stage_sq(*args):
        before = len(pairs)
        per_stage.append(inner(*args))
        member_scans.append(len(pairs) - before)
        return per_stage[-1]

    monkeypatch.setattr(haver_module, "diameters_sq", per_stage_sq)
    results = _count_calls(monkeypatch, haver_module, "diameter_of_sq")
    for label in ("unit_interval_1024", "cantor_10", "unit_square_64"):
        code, _ = run(["demo", "--label", label, "--horizon", "6"])
        assert code == 0
    # every member's squared diameter came from its extents: no per-member
    # query, and no Fraction until one diameter per distinct value
    assert traces == [] and member_scans == [0] * 18
    assert len(results) == sum(len(set(worst.tolist())) for worst in per_stage)
    # the square's point-isolating stage: 4,225 members, one diameter
    assert max(len(worst) for worst in per_stage) == 4225


def test_haver_command_builds_only_the_reported_traces(monkeypatch):
    traces = _count_inits(monkeypatch, ClaimTrace)
    code, doc = run(
        ["haver", "--space", str(GOLDEN / "space.json"), "--chain",
         str(GOLDEN / "chain.json"), "--epsilons", "1,1/4,1/16,1/64"]
    )
    assert code == 0 and len(traces) == len(doc["result"]["traces"]) == 9


def _count_inits(monkeypatch, cls):
    calls = []
    inner = cls.__init__

    def counted(self, *args):
        calls.append(args)
        inner(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls
