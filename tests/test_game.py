from __future__ import annotations

import heapq
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.game as game
from covergames.cli import run
from covergames.covers import (
    Ball,
    Box,
    Cover,
    CoverSeq,
    DisjointFamily,
    containers,
    region_mask,
    region_members,
)
from covergames.exact import CheckFailure, InputError
from covergames.game import (
    _by_stage,
    adversarial_two_policy,
    assemble_W,
    block_index,
    covering_two_policy,
    hurewicz_selection_check,
    menger_selection_check,
    play_hurewicz_game,
    sc_plus_select,
    strategy_F_move,
    transcript_loss_report,
)
from covergames.jsonio import coverseq_from_json, load_json, space_from_json
from covergames.netting import greedy_net
from covergames.space import build_cantor_space, build_grid_space
from oracles import (
    block_index_loop,
    box_family,
    earliest_occurrence,
    heap_covering_policy,
    pairwise_disjoint_check,
    refines_oracle,
)
from test_family_geometry import _count_calls


def overlapping_interval_covers(s, horizon, step=F(3, 100)):
    """Validated two-interval covers whose overlap widens per stage, so
    different blocks pick different brick sizes (distinct box values)."""
    covers = []
    for k in range(horizon):
        a = F(3, 5) + k * step
        b = F(2, 5) - k * step
        covers.append(
            Cover(
                s,
                [
                    Box(s, (F(0),), (a,), lo_closed=(True,)),
                    Box(s, (b,), (F(1),), hi_closed=(True,)),
                ],
            )
        )
    return CoverSeq(s, covers)


def selected_regions(transcript, k):
    """Round k's selection as regions: each (stage, index) ref read from the
    round's move."""
    fams = transcript.move_families(k)
    return [fams[n].regions[ridx] for n, ridx in transcript.rounds[k - 1].two_refs]


class TestStrategyMove:
    def test_trivial_covers_alternating(self, interval_64):
        s = interval_64
        trivial = Cover(s, [Ball(s, 32, F(2))])
        covers = CoverSeq(s, [trivial, trivial])
        move = strategy_F_move(s, covers, 1)
        assert len(move) == 2
        union = np.zeros(s.n, dtype=bool)
        for fam in move:
            union |= fam.union_mask()
        assert union.all()

    def test_interior_start(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        move = strategy_F_move(s, covers, 3)
        assert len(move) == 6  # families indexed 3..8
        union = np.zeros(s.n, dtype=bool)
        for fam in move:
            union |= fam.union_mask()
        assert union.all()
        for off, fam in enumerate(move):
            assert refines_oracle(fam.regions, covers.cover(3 + off))[0]

    def test_suffix_too_short(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 4)
        with pytest.raises(InputError):
            strategy_F_move(s, covers, 4)  # d=1 leaves one cover only

    def test_bit_identical_replay(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 6)
        a = strategy_F_move(s, covers, 1)
        b = strategy_F_move(s, covers, 1)
        assert [f.regions for f in a] == [f.regions for f in b]
        assert [f.witness for f in a] == [f.witness for f in b]


class TestBlockIndex:
    def _move(self, s):
        # distinct covers per stage so the families carry distinct boxes
        covers = overlapping_interval_covers(s, 4)
        move = strategy_F_move(s, covers, 1)
        fams = {n: fam for n, fam in enumerate(move, start=1)}
        # sanity for the tests below: no value collisions across families
        seen = {}
        for n, fam in fams.items():
            for r in fam.regions:
                seen.setdefault(r, n)
        assert all(seen[r] == n for n, fam in fams.items() for r in fam.regions)
        return fams

    def test_from_first_family(self, interval_64):
        fams = self._move(interval_64)
        assert block_index([(1, 0)], fams, 1) == 2

    def test_spanning_first_and_third(self, interval_64):
        fams = self._move(interval_64)
        assert block_index([(1, 0), (3, 0)], fams, 1) == 4

    def test_duplicate_value_counts_at_earliest(self, interval_64):
        # identical covers produce identical brick families; a region value
        # appearing at several stages counts at its earliest occurrence
        s = interval_64
        trivial = Cover(s, [Ball(s, 32, F(2))])
        covers = CoverSeq(s, [trivial] * 4)
        move = strategy_F_move(s, covers, 1)
        fams = {n: fam for n, fam in enumerate(move, start=1)}
        assert fams[3].regions[0] in fams[1].regions
        assert block_index([(3, 0)], fams, 1) == 2

    def test_empty_selection(self, interval_64):
        fams = self._move(interval_64)
        assert block_index([], fams, 1) == 1

    def test_foreign_region_rejected(self, interval_64):
        fams = self._move(interval_64)
        for ref in ((5, 0), (1, len(fams[1])), (1, -1), (1, 2**70), (2**70, 0)):
            with pytest.raises(InputError):
                block_index([(1, 0), ref], fams, 1)


class TestPlay:
    def test_single_point_space(self, point_space):
        s = point_space
        cover = Cover(s, [Ball(s, 0, F(1))])
        covers = CoverSeq(s, [cover] * 4)
        transcript = play_hurewicz_game(s, covers)
        loss = transcript_loss_report(transcript)
        assert loss.lost_by_one
        assert all(k == 1 for k in loss.tail_round)

    def test_covering_two_loses_for_one(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        transcript = play_hurewicz_game(s, covers)
        loss = transcript_loss_report(transcript)
        assert loss.lost_by_one
        # every round's selection covers the sample
        for k in range(1, len(transcript.rounds) + 1):
            u = np.zeros(s.n, dtype=bool)
            for region in selected_regions(transcript, k):
                u |= region_mask(region)
            assert u.all()

    def test_adversarial_two_keeps_one_alive(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 6)
        avoid = 32
        transcript = play_hurewicz_game(s, covers, adversarial_two_policy(avoid))
        loss = transcript_loss_report(transcript)
        assert not loss.lost_by_one
        assert avoid in loss.unresolved

    def test_blocks_strictly_increase(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        transcript = play_hurewicz_game(s, covers)
        for a, b in zip(transcript.blocks, transcript.blocks[1:]):
            assert a < b


class TestAssemble:
    def test_single_point_every_stage_nonempty(self, point_space):
        s = point_space
        cover = Cover(s, [Ball(s, 0, F(1))])
        covers = CoverSeq(s, [cover] * 4)
        res = sc_plus_select(s, covers)
        for lo, hi in res.usable_blocks():
            assert any(len(res.family(j)) > 0 for j in range(lo, hi))
        assert max(res.tail_index) == 1

    def test_all_three_clauses(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        res = sc_plus_select(s, covers)
        # clause 1: finite pairwise disjoint; clause 2: refines
        for n in range(1, 9):
            fam = res.family(n)
            assert len(fam) < 100
            assert pairwise_disjoint_check(fam.regions, s.mesh).ok
            assert refines_oracle(fam.regions, covers.cover(n))[0]
        # clause 3: the block clause via the recorded tail indices
        for lo, hi in res.usable_blocks():
            union = np.zeros(s.n, dtype=bool)
            for j in range(lo, hi):
                union |= res.family(j).union_mask()
            assert union.all()  # covering TWO gives tail index 1

    def test_block_minimality(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        transcript = play_hurewicz_game(s, covers)
        for k, rnd in enumerate(transcript.rounds):
            fams = transcript.move_families(k + 1)
            m = rnd.block
            assert block_index(rnd.two_refs, fams, rnd.start_index) == m
            # decrementing the block breaks containment
            if rnd.two_refs:
                below = [
                    n
                    for n in fams
                    if n < m - 1
                    for _ in fams[n].regions
                ]
                contained = all(
                    any(r in fams[n].regions for n in fams if n < m - 1)
                    for r in selected_regions(transcript, k + 1)
                )
                assert not contained

    def test_no_invented_regions(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        transcript = play_hurewicz_game(s, covers)
        res = assemble_W(transcript)
        offered = set()
        for k in range(1, len(transcript.rounds) + 1):
            offered.update(selected_regions(transcript, k))
        for n in range(1, 9):
            for region in res.family(n).regions:
                assert region in offered

    def test_members_fit_their_stage_cover(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        res = sc_plus_select(s, covers)
        for n in range(1, 9):
            cov, fam = covers.cover(n), res.family(n)
            assert None not in containers(fam.family, cov)
            # the inherited witnesses hold too, with the evidence they record
            found = containers(fam.family, cov, [[w] for w in fam.witness])
            assert found == list(zip(fam.witness, fam.witness_kinds))

    def test_not_lost_rejected(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 6)
        transcript = play_hurewicz_game(s, covers, adversarial_two_policy(32))
        with pytest.raises(CheckFailure):
            assemble_W(transcript)

    def test_deterministic(self, interval_64):
        s = interval_64
        covers = overlapping_interval_covers(s, 8)
        a = sc_plus_select(s, covers)
        b = sc_plus_select(s, covers)
        assert a.blocks == b.blocks
        assert [f.regions for f in a.families] == [f.regions for f in b.families]


class TestCheckers:
    def _covers(self, s, horizon=4):
        return CoverSeq(
            s,
            [
                Cover(s, [Ball(s, 0, F(2)), Ball(s, 32, F(1, 4)), Ball(s, 64, F(1, 4))])
                for _ in range(horizon)
            ],
        )

    def test_full_picks_tail_one(self, interval_64):
        s = interval_64
        covers = self._covers(s)
        picks = [[0, 1, 2]] * 4
        rep = hurewicz_selection_check(s, covers, picks)
        assert rep.ok and set(rep.tail_start) == {1}

    def test_empty_picks_fail_everywhere(self, interval_64):
        s = interval_64
        covers = self._covers(s)
        rep = hurewicz_selection_check(s, covers, [[], [], [], []])
        assert not rep.ok and len(rep.failures) > 0
        men = menger_selection_check(s, covers, [[], [], [], []])
        assert not men.ok and men.failure_point == 0

    def test_whole_space_pick_covers(self, interval_64):
        s = interval_64
        covers = self._covers(s)
        picks = [[0], [], [], []]  # one pick containing a whole-space region
        assert menger_selection_check(s, covers, picks).ok

    def test_menger_without_hurewicz_tail(self, interval_64):
        # each point covered at exactly one stage: the union covers but the
        # tail condition fails for the early-only points
        s = interval_64
        left = Box(s, (F(0),), (F(33, 64),), lo_closed=(True,))
        right = Box(s, (F(31, 64),), (F(1),), hi_closed=(True,))
        covers = CoverSeq(s, [Cover(s, [left, right]) for _ in range(2)])
        picks = [[0], [1]]
        men = menger_selection_check(s, covers, picks)
        assert men.ok
        hur = hurewicz_selection_check(s, covers, picks)
        assert not hur.ok

    def test_hurewicz_implies_menger(self, interval_64):
        s = interval_64
        rng = random.Random(41)
        covers = self._covers(s)
        for _ in range(20):
            picks = [
                sorted(rng.sample(range(3), rng.randrange(1, 4)))
                for _ in range(4)
            ]
            hur = hurewicz_selection_check(s, covers, picks)
            if hur.ok:
                assert menger_selection_check(s, covers, picks).ok

    def test_select_output_passes(self, interval_64):
        from covergames.netting import chain_decomposition, select_from_decomposition

        s = interval_64
        covers = self._covers(s)
        dec = chain_decomposition(
            s,
            [
                s.subset_from_indices(range(0, 33)),
                s.subset_all(),
                s.subset_all(),
                s.subset_all(),
            ],
        )
        sel = select_from_decomposition(s, dec, covers)
        rep = hurewicz_selection_check(s, covers, sel.picks)
        assert rep.ok
        for p in range(s.n):
            assert rep.tail_start[p] <= dec.tail_start[p]


class TestCantorGame:
    def test_blocks_single_steps(self, cantor_5):
        s = cantor_5
        cover = Cover(s, [Ball(s, 0, F(2)), Ball(s, 16, F(1, 2))])
        covers = CoverSeq(s, [cover] * 5)
        res = sc_plus_select(s, covers)
        assert res.blocks == tuple(range(2, 2 + len(res.blocks)))
        assert max(res.tail_index) == 1


# -- TWO's greedy pick against the two-path policy it replaced ------------------------


def two_path_covering_policy(one_move):
    """The covering policy before its lazy greedy: a size-sorted pick when
    the first family alone covers, otherwise an eager greedy that rescans
    every region for each pick."""
    some_fam = next(iter(one_move.values()))
    space = some_fam.space
    stages = sorted(one_move)
    prefix = []
    covered = np.zeros(space.n, dtype=bool)
    for n in stages:
        prefix.append(n)
        covered |= one_move[n].union_mask()
        if covered.all():
            break
    if not covered.all():
        raise CheckFailure(
            "ONE's move does not cover the sample",
            witness=int(np.flatnonzero(~covered)[0]),
        )
    if len(prefix) == 1:
        n = prefix[0]
        sized = []
        for ridx, region in enumerate(one_move[n].regions):
            size = len(region_members(region))
            if size:
                sized.append((-size, ridx))
        return [(n, ridx) for _, ridx in sorted(sized)]
    flat = [
        (n, ridx, region_members(region))
        for n in prefix
        for ridx, region in enumerate(one_move[n].regions)
    ]
    uncovered = np.ones(space.n, dtype=bool)
    picks = []
    while uncovered.any():
        best, best_gain = None, 0
        for n, ridx, members in flat:
            gain = int(np.count_nonzero(uncovered[members]))
            if gain > best_gain:
                best, best_gain = (n, ridx, members), gain
        n, ridx, members = best
        picks.append((n, ridx))
        uncovered[members] = False
    return picks


def random_disjoint_family(s, parent, rng):
    """Boxes around runs of consecutive grid points, a mesh apart, with runs
    left out at random."""
    h = s.structure.h
    boxes, k = [], 0
    while k < s.n:
        end = min(k + rng.randint(1, 6), s.n) - 1
        if rng.random() >= 0.15:
            boxes.append(Box(s, (k * h - h / 4,), (end * h + h / 4,)))
        k = end + 1
    return DisjointFamily(box_family(s, boxes), parent, witness=[0] * len(boxes))


def test_lazy_greedy_matches_the_two_path_policy():
    s = build_grid_space(1, F(1, 32))
    parent = Cover(s, [Ball(s, 0, F(2))])
    rng = random.Random(1801)
    covering = single = 0
    for _ in range(400):
        start = rng.randint(1, 3)
        move = {
            start + k: random_disjoint_family(s, parent, rng)
            for k in range(rng.randint(1, 3))
        }
        try:
            want = two_path_covering_policy(move)
        except CheckFailure as exc:
            with pytest.raises(CheckFailure) as got:
                covering_two_policy(move)
            assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
            continue
        assert covering_two_policy(move) == want
        covering += 1
        single += bool(move[start].union_mask().all())
    # covering and non-covering moves, one-family prefixes among the former
    assert 50 < covering < 350 and 20 < single < covering


def numpy_lazy_greedy_policy(one_move):
    """The covering policy before its point-to-region index: a heap of stale
    gains, the top one refreshed with a numpy count per pop."""
    some_fam = next(iter(one_move.values()))
    space = some_fam.space
    prefix = []
    covered = np.zeros(space.n, dtype=bool)
    for n in sorted(one_move):
        prefix.append(n)
        covered |= one_move[n].union_mask()
        if covered.all():
            break
    if not covered.all():
        raise CheckFailure(
            "ONE's move does not cover the sample",
            witness=int(np.flatnonzero(~covered)[0]),
        )
    flat = [
        (n, ridx, region_members(region))
        for n in prefix
        for ridx, region in enumerate(one_move[n].regions)
    ]
    heap = [(-len(m), i) for i, (_, _, m) in enumerate(flat) if len(m)]
    heapq.heapify(heap)
    uncovered = np.ones(space.n, dtype=bool)
    left = space.n
    picks = []
    while left:
        _, i = heapq.heappop(heap)
        n, ridx, members = flat[i]
        gain = int(np.count_nonzero(uncovered[members]))
        if not gain:
            continue
        if heap and (-gain, i) > heap[0]:
            heapq.heappush(heap, (-gain, i))
            continue
        picks.append((n, ridx))
        uncovered[members] = False
        left -= gain
    return picks


def run_family(s, parent, rng, run):
    """Boxes around runs of `run` consecutive points (1 to 6 when run is
    0), a mesh apart, with runs left out at random: equal runs tie."""
    h = s.structure.h
    boxes, k = [], 0
    while k < s.n:
        end = min(k + (run or rng.randint(1, 6)), s.n) - 1
        if rng.random() >= 0.15:
            boxes.append(Box(s, (k * h - h / 4,), (end * h + h / 4,)))
        k = end + 1
    return DisjointFamily(box_family(s, boxes), parent, witness=[0] * len(boxes))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    runs=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    start=st.integers(1, 3),
)
def test_indexed_greedy_matches_the_numpy_lazy_greedy(seed, runs, start):
    # moves of 1-4 families whose runs are all of one length (tied gains) or
    # random; on a block's own families too
    s = GREEDY_SPACE
    rng = random.Random(seed)
    move = {start + k: run_family(s, GREEDY_PARENT, rng, run) for k, run in enumerate(runs)}
    if rng.random() < 0.25:
        move = dict(enumerate(strategy_F_move(s, GREEDY_COVERS, 1), start=1))
    try:
        want = numpy_lazy_greedy_policy(move)
    except CheckFailure as exc:
        with pytest.raises(CheckFailure) as got:
            covering_two_policy(move)
        assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
        return
    assert covering_two_policy(move) == want


GREEDY_SPACE = build_grid_space(1, F(1, 32))
GREEDY_PARENT = Cover(GREEDY_SPACE, [Ball(GREEDY_SPACE, 0, F(2))])
GREEDY_COVERS = CoverSeq(
    GREEDY_SPACE,
    [Cover(GREEDY_SPACE, [Ball(GREEDY_SPACE, c, GREEDY_SPACE.mesh) for c in range(33)])]
    + [GREEDY_PARENT] * 3,
)


# -- assembled families against the routing they replaced ---------------------------


def routing_oracle(transcript):
    """assemble_W's routing before subfamilies: per stage, the (region,
    witness, kind) entries of the round-k selections whose earliest
    occurrence in round k's move is that stage, once per region value, in
    TWO's order."""
    entries = {j: [] for j in range(1, transcript.horizon + 1)}
    for k, rnd in enumerate(transcript.rounds, start=1):
        fams = transcript.move_families(k)
        occurrence = {}
        for n in sorted(fams):
            for ridx, region in enumerate(fams[n].regions):
                occurrence.setdefault(region, (n, ridx))
        seen = set()
        for region in selected_regions(transcript, k):
            if region in seen:
                continue
            seen.add(region)
            n, ridx = occurrence[region]
            if rnd.start_index <= n < rnd.block and n <= transcript.horizon:
                fam = fams[n]
                entries[n].append((region, fam.witness[ridx], fam.witness_kinds[ridx]))
    return entries


def random_ball_covers(s, horizon, rng):
    """Per stage, the balls of a greedy net at a random radius plus a few
    more balls of that radius, shuffled."""
    covers = []
    for _ in range(horizon):
        radius = max(s.diameter_upper_bound(), s.mesh) * 2 / 2 ** rng.randint(0, 3)
        centers = list(greedy_net(s, s.subset_all(), radius).centers)
        centers += rng.sample(range(s.n), min(s.n, 3))
        rng.shuffle(centers)
        covers.append(Cover(s, [Ball(s, c, radius) for c in centers]))
    return CoverSeq(s, covers)


def noisy_two_policy(rng):
    """The covering reply plus random extra picks and repeats, shuffled."""

    def policy(one_move):
        picks = covering_two_policy(one_move)
        refs = [(n, r) for n in sorted(one_move) for r in range(len(one_move[n]))]
        picks += rng.sample(refs, min(len(refs), rng.randint(0, 3)))
        picks += picks[: rng.randint(0, 2)]
        rng.shuffle(picks)
        return picks

    return policy


@pytest.mark.parametrize("name", ["interval", "square", "cantor"])
def test_assembled_families_match_the_old_routing(name):
    s = {
        "interval": lambda: build_grid_space(1, F(1, 16)),
        "square": lambda: build_grid_space(2, F(1, 8)),
        "cantor": lambda: build_cantor_space(4),
    }[name]()
    rng = random.Random(name)
    compared = 0
    for seed in range(8):
        covers = random_ball_covers(s, rng.randint(3, 7), rng)
        policy = None if seed % 2 == 0 else noisy_two_policy(rng)
        transcript = play_hurewicz_game(s, covers, policy)
        if not transcript_loss_report(transcript).lost_by_one:
            with pytest.raises(CheckFailure, match="not lost by ONE"):
                assemble_W(transcript)
            continue
        want = routing_oracle(transcript)
        for j, fam in enumerate(assemble_W(transcript).families, start=1):
            assert fam.parent is covers.cover(j)
            assert list(zip(fam.regions, fam.witness, fam.witness_kinds)) == want[j]
        compared += 1
    assert compared >= 4


# -- moves read from the game's one sequence ----------------------------------------


@pytest.mark.parametrize("name", ["interval", "square", "cantor"])
def test_moves_match_a_fresh_sequence(name):
    # every round reads its blocks from one sequence kept for the whole game;
    # a move built on a fresh sequence of the same covers has equal members
    # and witnesses, and a round starting on the previous move's block grid
    # gets that move's very families
    s = {
        "interval": lambda: build_grid_space(1, F(1, 16)),
        "square": lambda: build_grid_space(2, F(1, 4)),
        "cantor": lambda: build_cantor_space(4),
    }[name]()
    d = s.screen_dim
    # a ball of radius mesh on every point: no brick side fits below its
    # Lebesgue number, so a grid block holding it falls back to points;
    # blocks of one ball holding the sample always get bricks
    fine = Cover(s, [Ball(s, c, s.mesh) for c in range(s.n)])
    coarse = Cover(s, [Ball(s, 0, 4 * s.diameter_upper_bound())])
    rng = random.Random(f"fresh-{name}")
    rounds = off_grid = shared = 0
    for seed in range(12):
        seq = list(random_ball_covers(s, rng.randint(d + 2, 8), rng).covers)
        if seed % 2:
            seq = [coarse] * len(seq)
        for _ in range(rng.randint(0, 2)):
            seq[rng.randrange(len(seq))] = fine
        covers = CoverSeq(s, seq)
        horizon = rng.randint(max(d + 1, covers.horizon - 2), covers.horizon)
        policy = [
            None, adversarial_two_policy(rng.randrange(s.n)), noisy_two_policy(rng)
        ][seed % 3]
        transcript = play_hurewicz_game(s, covers, policy, horizon)
        prev = None
        for rnd in transcript.rounds:
            fresh = CoverSeq(s, covers.covers[:horizon])
            want = strategy_F_move(s, fresh, rnd.start_index)
            assert len(rnd.one_move) == len(want)
            for got, fam in zip(rnd.one_move, want):
                assert got.parent is fam.parent and got.regions == fam.regions
                assert got.witness == fam.witness
                assert got.witness_kinds == fam.witness_kinds
            if prev is not None:
                shift = rnd.start_index - prev.start_index
                if shift % (d + 1):
                    off_grid += 1
                else:
                    assert rnd.one_move[0] is prev.one_move[shift]
                    shared += 1
            prev = rnd
            rounds += 1
    assert rounds >= 12 and shared >= 1
    if d:
        assert off_grid >= 1


# -- the occurrence table and the greedy against their per-member loops -------------

GOLDEN = Path(__file__).parent / "golden" / "inputs"


def golden_game():
    space = space_from_json(load_json(GOLDEN / "space.json"))
    return space, coverseq_from_json(space, load_json(GOLDEN / "covers.json"))


def object_row_move(rng):
    """A move of families on a 1-D grid whose box ends sit 2**-70 off the
    grid: their rows are Python ints.  Later stages repeat some boxes of
    earlier ones, so values occur at several stages."""
    s = build_grid_space(1, F(1, 16))
    parent = Cover(s, [Ball(s, 0, F(2))])
    h, tiny = s.structure.h, F(1, 2**70)
    pool = [Box(s, (k * h - h / 4 - tiny,), (k * h + h / 4 + tiny,)) for k in range(s.n)]
    pool += [Box(s, (k * h - h / 4,), ((k + 1) * h + h / 4,)) for k in range(0, s.n - 1, 2)]
    move, start = {}, rng.randint(1, 3)
    for n in range(start, start + rng.randint(1, 4)):
        boxes, taken = [], np.zeros(s.n, dtype=bool)
        for box in rng.sample(pool, len(pool)):
            members = region_members(box)
            if len(members) and not taken[max(members.min() - 1, 0) : members.max() + 2].any():
                taken[members] = True
                boxes.append(box)
        move[n] = DisjointFamily(box_family(s, boxes), parent, witness=[0] * len(boxes))
    return move


def game_moves():
    """(label, start, move) of every round of the golden game under the
    covering and the adversarial policy, of seeded ball-cover games whose
    first block is bricks (covering, adversarial and noisy policies), and
    of moves of object-row families."""
    space, covers = golden_game()
    games = [("golden", space, covers, None), ("golden", space, covers, adversarial_two_policy(4))]
    for name, s in [
        ("interval", build_grid_space(1, F(1, 16))),
        ("square", build_grid_space(2, F(1, 8))),
        ("cantor", build_cantor_space(4)),
    ]:
        rng = random.Random(f"occurrence-{name}")
        for seed in range(6):
            covers = random_ball_covers(s, rng.randint(3, 7), rng)
            policy = [None, adversarial_two_policy(rng.randrange(s.n)), noisy_two_policy(rng)]
            games.append((name, s, covers, policy[seed % 3]))
    for label, s, covers, policy in games:
        for rnd in play_hurewicz_game(s, covers, policy).rounds:
            yield label, rnd, _by_stage(rnd.start_index, rnd.one_move)
    rng = random.Random("object rows")
    for _ in range(30):
        move = object_row_move(rng)
        yield "object", None, move


def test_occurrence_table_matches_the_dict_table():
    seen, bricks, shared = set(), 0, 0
    for label, rnd, move in game_moves():
        want = earliest_occurrence(move)
        refs = [(n, i) for n in sorted(move) for i in range(len(move[n]))]
        stage, ridx = game._earliest(refs, move, "outside")
        assert list(zip(stage.tolist(), ridx.tolist())) == [want[n][i] for n, i in refs]
        shared += sum(want[n][i] != (n, i) for n, i in refs)
        if rnd is not None:
            # the round's table is the one its block index and routing read
            stage, ridx = rnd.earliest
            routed = [want[n][i] for n, i in rnd.two_refs]
            assert list(zip(stage.tolist(), ridx.tolist())) == routed
            got = block_index(rnd.two_refs, move, rnd.start_index)
            assert got == block_index_loop(rnd.two_refs, move, rnd.start_index) == rnd.block
            bricks += len(move[rnd.start_index]) < rnd.one_move[0].space.n
        else:
            assert {fam.family.lo.dtype for fam in move.values()} == {np.dtype(object)}
        seen.add(label)
    assert seen == {"golden", "interval", "square", "cantor", "object"}
    assert bricks >= 20 and shared >= 20


def test_one_occurrence_table_per_round(monkeypatch):
    # a round is one ONE move; its table serves its block index and routing
    tables = _count_calls(monkeypatch, game, "_earliest")
    moves = _count_calls(monkeypatch, game, "strategy_F_move")
    for label in ("unit_interval_1024", "cantor_10", "unit_square_64"):
        code, _ = run(["demo", "--label", label, "--horizon", "6"])
        assert code == 0
    assert len(moves) >= 6 and len(tables) == len(moves)


def test_covering_policy_matches_the_heap_greedy():
    single = several = 0
    for _, _, move in game_moves():
        try:
            want = heap_covering_policy(move)
        except CheckFailure as exc:
            with pytest.raises(CheckFailure) as got:
                covering_two_policy(move)
            assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
            continue
        assert covering_two_policy(move) == want
        first = move[min(move)]
        if first.union_mask().all():
            single += 1
        else:
            several += 1
    assert single >= 20 and several >= 5


def test_policy_refs_outside_the_move_are_refused(interval_64):
    s = interval_64
    covers = overlapping_interval_covers(s, 4)
    size = len(strategy_F_move(s, covers, 1)[0])
    for ref in ((0, 0), (5, 0), (1, size), (1, -1), (1, 2**70), (2**70, 0)):
        with pytest.raises(InputError, match="TWO's policy referenced a region outside"):
            play_hurewicz_game(s, covers, lambda move, ref=ref: [(1, 0), ref])
