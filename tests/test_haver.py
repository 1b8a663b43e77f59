from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.space as space_module
from covergames.cli import run
from covergames.covers import (
    Ball,
    CoClosedBalls,
    covers_check,
    region_mask,
)
from covergames.exact import CheckFailure, InputError
from covergames.haver import (
    ClaimHorizonError,
    build_haver_witness,
    normalize_epsilons,
    build_stage_covers,
)
from covergames.netting import chain_decomposition
from covergames.space import diameter, paired_delta
from oracles import analytic_contains, pairwise_disjoint_check


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
