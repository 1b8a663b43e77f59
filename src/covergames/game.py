"""The Hurewicz game: ONE's refinement strategy, TWO's policies, block
bookkeeping, and the assembled per-stage disjoint families with their block
indices; plus the Hurewicz/Menger selection checkers.

ONE's move at suffix start s is the family list of covers s..N, read block
by block from the cover sequence: the blocks s, s+d+1, ... of screen_dim+1
covers, each built once per sequence by the selective refinement engine
(each family disjoint, refining its cover, the whole move covering the
sample).  The game plays every round on one sequence, so a block shared by
several moves is built once.  TWO answers with a finite subfamily.
The block index after a move is the least n such that every selected region
already occurs in some family with index below n; the next move starts
there.

Assembled families: region values picked by TWO are routed to the stage of
their earliest occurrence in the move they came from (a box's value is its
integer row over a denominator common to the move).  Every routed region
therefore sits inside its own stage's disjoint family (disjointness and
refinement are inherited), and each still satisfies the defining property of
the construction: it is contained in some element of its stage's cover.
Routing by occurrence rather than by the bare containment property is what
keeps the families disjoint when TWO's selection spans overlapping
families.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import lcm
from typing import Callable, Sequence

import numpy as np

from .covers import (
    CoverSeq,
    DisjointFamily,
    OpenRegion,
    _members,
    union_mask,
    union_of,
)
from .exact import CheckFailure, InputError
from .screenability import _block, _full_block, _screen_dim
from .space import SampledSpace, first_hit, tail_start

DEFAULT_TAIL_SLACK = 1


@dataclass(frozen=True)
class Round:
    start_index: int
    one_move: tuple[DisjointFamily, ...]  # families for covers start..horizon
    two_refs: tuple[tuple[int, int], ...]  # (stage, region idx) per selection
    block: int
    # per selection, the earliest (stage, region idx) in the move holding its
    # region value: two int arrays, aligned with two_refs
    earliest: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    def two_union(self) -> np.ndarray:
        """The sample points in some region TWO selected."""
        refs = _ref_array(self.two_refs)
        mask = np.zeros(self.one_move[0].space.n, dtype=bool)
        for n, fam in _by_stage(self.start_index, self.one_move).items():
            keep = refs[refs[:, 0] == n, 1]
            if keep.size:
                mask |= fam.union_mask(keep)
        return mask


@dataclass(frozen=True)
class Transcript:
    space: SampledSpace
    covers: CoverSeq
    rounds: tuple[Round, ...]
    blocks: tuple[int, ...]
    horizon: int

    def move_families(self, k: int) -> dict[int, DisjointFamily]:
        """Round k's families keyed by their cover stage."""
        rnd = self.rounds[k - 1]
        return _by_stage(rnd.start_index, rnd.one_move)


def _by_stage(start: int, move) -> dict[int, DisjointFamily]:
    return {start + off: fam for off, fam in enumerate(move)}


def _ref_array(refs: Sequence[tuple[int, int]]) -> np.ndarray:
    """(stage, member index) refs as a (k, 2) int array."""
    return np.fromiter(itertools.chain.from_iterable(refs), np.int64).reshape(-1, 2)


TwoPolicy = Callable[[dict[int, DisjointFamily]], list[tuple[int, int]]]


def strategy_F_move(
    space: SampledSpace,
    covers: CoverSeq,
    start_index: int,
) -> tuple[DisjointFamily, ...]:
    """ONE's move: disjoint refining families for covers start..horizon whose
    union covers the sample, read block by block from the sequence (each
    block built once per sequence, the point-isolating fallback allowed)."""
    d = _screen_dim(space)
    if start_index > covers.horizon - d:
        raise InputError(
            f"suffix too short: start {start_index} leaves fewer than "
            f"{d + 1} covers"
        )
    starts = range(start_index, covers.horizon + 1, d + 1)
    return tuple(
        f for lo in starts for f in _block(covers, lo, allow_pointwise=True)[0]
    )


def _earliest(
    refs: Sequence[tuple[int, int]],
    one_move: dict[int, DisjointFamily],
    message: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Per (stage, member index) ref into ONE's move, the earliest (stage,
    member index) in the move holding an equal region value, as two int
    arrays; a ref outside the move raises InputError with the message.

    A box's value is its integer row over the lcm of the families'
    denominators.  One stable lexsort of the move's rows, flat in stage
    order, puts each distinct row's earliest member first among its equals;
    the same code serves int64 and object rows."""
    stages = np.array(sorted(one_move), dtype=np.int64)
    sizes = np.array([len(one_move[n]) for n in stages.tolist()], dtype=np.int64)
    try:
        refs = _ref_array(refs)
    except OverflowError:  # a ref past int64 is outside every move
        raise InputError(message) from None
    # a stage past the last reads a family of no members
    at = np.searchsorted(stages, refs[:, 0])
    known = np.append(stages, 0)[at] == refs[:, 0]
    ridx = refs[:, 1]
    if not (known & (0 <= ridx) & (ridx < np.append(sizes, 0)[at])).all():
        raise InputError(message)
    if not len(refs):
        return refs[:, 0], ridx
    offsets = np.zeros(len(stages) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    den = lcm(*(one_move[n].family.den for n in stages.tolist()))
    rows = np.concatenate([one_move[n].family.rows(den) for n in stages.tolist()])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    distinct = np.ones(len(order), dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    first = np.empty_like(order)
    first[order] = order[distinct][np.cumsum(distinct) - 1]
    first = first[offsets[at] + ridx]
    stage_of = np.searchsorted(offsets, first, "right") - 1
    return stages[stage_of], first - offsets[stage_of]


def _next_block(stage: np.ndarray, start_index: int) -> int:
    """The block index after a selection whose regions occur earliest at
    the given stages: the vacuous minimum, the suffix start, when empty."""
    return max(start_index, int(stage.max())) + 1 if stage.size else start_index


def block_index(
    two_refs: Sequence[tuple[int, int]],
    one_move: dict[int, DisjointFamily],
    start_index: int,
) -> int:
    """Least n with every selected region, given as (stage, member index) in
    ONE's move, occurring in some family below n.

    Occurrence is by region value; a region value present in several
    families counts at its earliest stage.  The empty selection yields the
    vacuous minimum, the suffix start itself.
    """
    stage, _ = _earliest(two_refs, one_move, "TWO selected a region outside ONE's move")
    return _next_block(stage, start_index)


def covering_two_policy(
    one_move: dict[int, DisjointFamily]
) -> list[tuple[int, int]]:
    """TWO's canonical winning reply: take the shortest prefix of ONE's
    families that already covers (the move's first block, by construction),
    then pick a minimal-by-greedy covering subfamily inside it, ties to the
    earliest (stage, index).  Staying in the earliest covering prefix keeps
    the block indices advancing one block per round.

    On a prefix of one family, which is pairwise disjoint, no pick changes
    another member's gain: the greedy takes the nonempty members by size,
    largest first, ties to the lower index.  Otherwise the greedy is lazy
    (Minoux 1978): a heap holds each region's gain as of its last push, and
    a point-to-region index keeps every gain exact (a pick decrements the
    gains of the regions holding the points it covers).  A popped gain that
    is still exact heads every fresh gain, ties by index, so it is picked; a
    stale one is pushed again at its exact value."""
    some_fam = next(iter(one_move.values()))
    space = some_fam.space
    stages = sorted(one_move)
    prefix: list[int] = []
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
        (n,) = prefix
        sizes = np.diff(one_move[n].family.indptr)
        order = np.argsort(-sizes, kind="stable")
        return [(n, ridx) for ridx in order[sizes[order] > 0].tolist()]
    refs = [(n, ridx) for n in prefix for ridx in range(len(one_move[n]))]
    boxes = [one_move[n].family for n in prefix]
    sizes = np.concatenate([np.diff(b.indptr) for b in boxes])
    points = np.concatenate([b.indices for b in boxes])
    region = np.repeat(np.arange(len(refs)), sizes)
    # the point-to-region index: the regions holding point p
    held = np.zeros(space.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(points, minlength=space.n), out=held[1:])
    holders = region[np.argsort(points, kind="stable")].tolist()
    at, held = np.r_[0, np.cumsum(sizes)].tolist(), held.tolist()
    points = points.tolist()
    gain = sizes.tolist()
    # (-gain when pushed, flat index): gains only shrink as points get covered
    heap = [(-g, i) for i, g in enumerate(gain) if g]
    heapq.heapify(heap)
    uncovered = [True] * space.n
    left = space.n
    picks: list[tuple[int, int]] = []
    while left:
        if not heap:
            raise AssertionError("uncovered points remain but no pick gains any")
        g, i = heapq.heappop(heap)
        if -g != gain[i]:  # stale
            if gain[i]:
                heapq.heappush(heap, (-gain[i], i))
            continue
        picks.append(refs[i])
        for p in points[at[i] : at[i + 1]]:
            if uncovered[p]:
                uncovered[p] = False
                left -= 1
                for r in holders[held[p] : held[p + 1]]:
                    gain[r] -= 1
    return picks


def adversarial_two_policy(avoid_point: int) -> TwoPolicy:
    """TWO grabs every offered region missing the given point: the play then
    never covers that point and ONE is not (yet) lost at the horizon."""

    def policy(one_move: dict[int, DisjointFamily]) -> list[tuple[int, int]]:
        picks = []
        for n in sorted(one_move):
            boxes = one_move[n].family
            at = np.flatnonzero(boxes.indices == avoid_point)
            holding = set((np.searchsorted(boxes.indptr, at, "right") - 1).tolist())
            picks.extend((n, r) for r in range(len(one_move[n])) if r not in holding)
        return picks

    return policy


def play_hurewicz_game(
    space: SampledSpace,
    covers: CoverSeq,
    two_policy: TwoPolicy | None = None,
    horizon: int | None = None,
) -> Transcript:
    """Alternate ONE's strategy moves and TWO's selections until the blocks
    pass the horizon or the remaining suffix is too short for a move; a
    horizon too short for ONE's first move is refused."""
    covers.validate()
    horizon = covers.horizon if horizon is None else horizon
    if horizon > covers.horizon:
        raise InputError("game horizon exceeds the cover sequence")
    d = _full_block(space, horizon)
    policy = two_policy if two_policy is not None else covering_two_policy
    rounds: list[Round] = []
    blocks: list[int] = []
    # every round reads its move from this one sequence, so a block is
    # built once however many moves contain it; a full-length game plays
    # on the given sequence and leaves its blocks there
    suffix = covers
    if horizon < covers.horizon:
        suffix = CoverSeq(space, covers.covers[:horizon])
    start = 1
    while start <= horizon - d:
        move = strategy_F_move(space, suffix, start)
        fams = _by_stage(start, move)
        refs = policy(fams)
        earliest = _earliest(
            refs, fams, "TWO's policy referenced a region outside the move"
        )
        m = _next_block(earliest[0], start)
        rounds.append(Round(start, move, tuple(refs), m, earliest))
        blocks.append(m)
        if m <= start:  # empty or stalled selection: no progress possible
            break
        start = m
    return Transcript(space, covers, tuple(rounds), tuple(blocks), horizon)


@dataclass(frozen=True)
class LossReport:
    lost_by_one: bool
    tail_round: tuple[int, ...] | None  # per point: least k with point in all
    unresolved: tuple[int, ...]  # points violating the truncated criterion

    def __bool__(self) -> bool:
        return self.lost_by_one


def transcript_loss_report(
    transcript: Transcript, tail_slack: int = DEFAULT_TAIL_SLACK
) -> LossReport:
    """Truncated loss criterion for ONE: every sample point lies in TWO's
    selection unions from some round k(x) <= rounds - tail_slack onward."""
    space = transcript.space
    unions = [rnd.two_union() for rnd in transcript.rounds]
    tail = tail_start(unions, space.n)
    cutoff = len(unions) - tail_slack
    bad = np.flatnonzero((tail == 0) | (tail > cutoff))
    if bad.size:
        return LossReport(False, None, tuple(bad.tolist()))
    return LossReport(True, tuple(tail.tolist()), ())


@dataclass(frozen=True)
class ScPlusResult:
    """Per-stage finite disjoint refining families plus strictly increasing
    block indices; the tail index records, per point, the first block from
    which every materialized block contains a covering stage."""

    families: tuple[DisjointFamily, ...]  # 1-based by stage
    blocks: tuple[int, ...]
    tail_index: tuple[int, ...]
    horizon: int

    def family(self, n: int) -> DisjointFamily:
        return self.families[n - 1]

    def usable_blocks(self) -> list[tuple[int, int]]:
        return _usable_blocks(self.blocks, self.horizon)


def _usable_blocks(blocks, horizon) -> list[tuple[int, int]]:
    """Materialized block intervals [m_k, m_{k+1}): both families and the
    closing index exist within the horizon."""
    return [(a, b) for a, b in zip(blocks, blocks[1:]) if b <= horizon + 1]


def assemble_W(
    transcript: Transcript, tail_slack: int = DEFAULT_TAIL_SLACK
) -> ScPlusResult:
    """Route TWO's selections into per-stage families.

    Precondition: the transcript is lost by ONE under the truncated
    criterion.  Stage j in [m_{k-1}, m_k) (with m_0 the first suffix start)
    receives the round-k selections whose earliest occurrence is j, in TWO's
    order, once each; regions never present in round k's move cannot appear
    (identity tracking).  The block intervals are disjoint, so stage j's
    family is a subfamily of round k's family at j and inherits its
    disjointness and refinement witnesses.
    """
    loss = transcript_loss_report(transcript, tail_slack)
    if not loss.lost_by_one:
        raise CheckFailure(
            "transcript is not lost by ONE under the truncated criterion",
            witness=loss.unresolved,
        )
    horizon = transcript.horizon
    # round 1 starts at stage 1, so its move has a family at every stage
    source = transcript.move_families(1)
    keep = {j: np.zeros(0, dtype=np.int64) for j in range(1, horizon + 1)}
    for k, rnd in enumerate(transcript.rounds, start=1):
        fams = transcript.move_families(k)
        stage, ridx = rnd.earliest
        routed = (rnd.start_index <= stage) & (stage < rnd.block) & (stage <= horizon)
        stage, ridx = stage[routed], ridx[routed]
        for j in np.unique(stage).tolist():
            picked = ridx[stage == j]
            _, first = np.unique(picked, return_index=True)
            source[j] = fams[j]
            keep[j] = picked[np.sort(first)]  # once each, in TWO's order
    families = [source[j].subfamily(keep[j]) for j in range(1, horizon + 1)]
    blocks = transcript.blocks
    for a, b in zip(blocks, blocks[1:]):
        if b <= a:
            raise CheckFailure("block indices must strictly increase", witness=blocks)
    tail = _tail_indices(transcript.space, families, blocks, horizon)
    return ScPlusResult(tuple(families), blocks, tail, horizon)


def _tail_indices(space, families, blocks, horizon) -> tuple[int, ...]:
    usable = _usable_blocks(blocks, horizon)
    block_cov = [union_of(space, families[lo - 1 : hi - 1]) for lo, hi in usable]
    tail = tail_start(block_cov, space.n)
    tail[tail == 0] = len(usable) + 1
    return tuple(tail.tolist())


def sc_plus_select(
    space: SampledSpace, covers: CoverSeq, tail_slack: int = DEFAULT_TAIL_SLACK
) -> ScPlusResult:
    """The block-selection engine: play the game with the covering policy,
    then assemble the families.  This is the engine the Haver pipeline
    consumes."""
    transcript = play_hurewicz_game(space, covers)
    return assemble_W(transcript, tail_slack)


# -- selection checkers -----------------------------------------------------------


@dataclass(frozen=True)
class TailReport:
    ok: bool
    tail_start: tuple[int, ...] | None  # per point: least K covered from K on
    failures: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def _picked_regions(
    covers: CoverSeq, picks: Sequence[Sequence[int]]
) -> list[list[OpenRegion]]:
    if len(picks) != covers.horizon:
        raise InputError("picks must give one (possibly empty) list per cover")
    out = []
    for n, chosen in enumerate(picks, start=1):
        cov = covers.cover(n)
        for ridx in chosen:
            if not 0 <= ridx < len(cov.regions):
                raise InputError(f"pick {ridx} outside cover {n}")
        out.append([cov.regions[ridx] for ridx in chosen])
    return out


def hurewicz_selection_check(
    space: SampledSpace,
    covers: CoverSeq,
    picks: Sequence[Sequence[int]],
) -> TailReport:
    """Per point, the least K with the point in every pick-union from K to
    the horizon; fails listing the points with no such K.  The picks of
    every stage get their members in one batch."""
    picked = _picked_regions(covers, picks)
    _members([r for regions in picked for r in regions])
    unions = [union_mask(space, regions) for regions in picked]
    tail = tail_start(unions, space.n)
    bad = np.flatnonzero(tail == 0)
    if bad.size:
        return TailReport(False, None, tuple(bad[:32].tolist()))
    return TailReport(True, tuple(tail.tolist()), ())


@dataclass(frozen=True)
class MengerReport:
    ok: bool
    failure_point: int | None

    def __bool__(self) -> bool:
        return self.ok


def menger_selection_check(
    space: SampledSpace,
    covers: CoverSeq,
    picks: Sequence[Sequence[int]],
) -> MengerReport:
    """The concatenation of all picks must cover; reports the first orphan
    point otherwise."""
    picked = _picked_regions(covers, picks)
    hit = first_hit(_members([r for regions in picked for r in regions]), space.n)
    if (hit < 0).any():
        return MengerReport(False, int(np.flatnonzero(hit < 0)[0]))
    return MengerReport(True, None)
