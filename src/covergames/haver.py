"""From a monotone totally-bounded chain and an epsilon schedule to a
verified small-diameter disjoint-family witness.

Pipeline per stage n (after normalizing the schedule so each term is
strictly below half its predecessor):

* delta_n = ((2**2**n - 1)/2**2**n) * (eps_n/2), strictly below eps_n/2;
* F_n = a greedy delta_n-net of chain stage n (centers inside the stage);
* U_n = the eps_n/2-balls at F_n plus the complement of the closed
  delta_n-balls at F_n -- a finite open cover of the whole sample, with two
  structural facts checked: closed delta_n-balls sit inside the open
  eps_n-balls (one integer comparison of the radii's scaled bounds), and
  stage n never meets the complement piece (pointwise).

The block-selection engine is then run on (U_n) to the same horizon, its
families are filtered to the members analytically inside some eps_n/2 ball,
and the covering claim is replayed point by point: pick a materialized block
at or past the point's chain entry stage, find a covering stage j inside it,
and observe that the region containing the point cannot sit in the
complement piece (the point is in stage j), so it survived the filter.
Points whose replay would need blocks past the horizon raise a documented
horizon-exhausted error rather than being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .covers import (
    Ball,
    BoxFamily,
    CoClosedBalls,
    Cover,
    CoverSeq,
    DisjointFamily,
    containers,
    covers_check,
    region_members,
    union_of,
)
from .exact import CheckFailure, InputError
from .game import sc_plus_select
from .netting import SigmaDecomposition, greedy_net
from .space import SampledSpace, Schedule, diameter, epsilon_schedule, paired_delta


class ClaimHorizonError(CheckFailure):
    """The covering-claim replay for some point needs blocks past the horizon."""


def normalize_epsilons(raw: Sequence[Fraction]) -> Schedule:
    """Monotonize a positive schedule so each term is strictly below half the
    previous one, never increasing any term.

    Terms already strict are kept; a term at or above half the previous one
    is replaced by a quarter of the previous (the largest power of one half
    that restores strictness).  Any witness for the output is a witness for
    the input.
    """
    vals = [Fraction(v) for v in raw]
    if not vals:
        raise InputError("epsilon schedule must be nonempty")
    if any(v <= 0 for v in vals):
        raise InputError("epsilon schedule terms must be positive")
    out = [vals[0]]
    for v in vals[1:]:
        prev = out[-1]
        out.append(v if v < prev / 2 else prev / 4)
    sched = epsilon_schedule(out)
    for n in range(1, sched.horizon):
        if not sched.value(n + 1) < sched.value(n) / 2:
            raise AssertionError(f"normalized epsilon {n + 1} does not halve term {n}")
        if not (sched.value(n) <= vals[n - 1] or n == 1):
            raise AssertionError(f"normalized epsilon {n} exceeds its raw value")
    return sched


@dataclass(frozen=True)
class StageCovers:
    """The per-stage two-piece covers with their nets and radii."""

    covers: CoverSeq
    nets: tuple[tuple[int, ...], ...]  # F_n center indices, 1-based stages
    deltas: tuple[Fraction, ...]
    complement_index: tuple[int, ...]  # index of the complement region per stage


def build_stage_covers(
    space: SampledSpace,
    chain: SigmaDecomposition,
    schedule: Schedule,
) -> StageCovers:
    """Build and validate the two-piece covers for each stage of the schedule.

    Requires the schedule normalized (strict halving) and a chain at least as
    long as the schedule horizon.
    """
    if chain.space is not space:
        raise InputError("chain must live on the given space")
    for n in range(1, schedule.horizon):
        if not schedule.value(n + 1) < schedule.value(n) / 2:
            raise InputError(
                "epsilon schedule must be normalized (strict halving); "
                "run normalize_epsilons first"
            )
    if chain.horizon < schedule.horizon:
        raise InputError("chain shorter than the schedule horizon")

    # every radius first: a stage past the doubling cap fails before any net
    deltas = [paired_delta(eps, n) for n, eps in enumerate(schedule.values, start=1)]
    covers = []
    nets = []
    comp_idx = []
    for n in range(1, schedule.horizon + 1):
        eps_n = schedule.value(n)
        delta_n = deltas[n - 1]
        if not delta_n < eps_n / 2:
            raise AssertionError(f"stage {n} net radius is not below epsilon / 2")
        stage = chain.stage(n)
        if stage.is_empty():
            raise CheckFailure(
                f"chain stage {n} is empty; nets need a nonempty stage",
                witness=n,
            )
        net = greedy_net(space, stage, delta_n)
        centers = net.centers
        regions: list = [Ball(space, c, eps_n / 2) for c in centers]
        comp = CoClosedBalls(space, tuple((c, delta_n) for c in centers))
        regions.append(comp)
        cover = Cover(space, regions)
        rep = covers_check(cover)
        if not rep.ok:
            raise CheckFailure(
                f"stage {n} cover fails to cover point {rep.failure_point}",
                witness=rep.failure_point,
            )
        # closed delta-balls inside the open eps-balls: every x with
        # d(c, x) <= delta_n has a scaled d^2 at most the left side
        if not space.scaled_bound(delta_n, closed=True) <= space.scaled_bound(eps_n):
            raise AssertionError(f"stage {n} closed delta-balls escape the eps-balls")
        # the stage never meets the complement piece
        if bool(stage.mask()[region_members(comp)].any()):
            raise AssertionError(
                f"stage {n} meets the complement piece of its own cover"
            )
        covers.append(cover)
        nets.append(tuple(centers))
        comp_idx.append(len(regions) - 1)
    return StageCovers(
        CoverSeq(space, covers), tuple(nets), tuple(deltas), tuple(comp_idx)
    )


@dataclass(frozen=True)
class ClaimTrace:
    point: int
    entry_stage: int  # least n with the point in chain stage n
    block: tuple[int, int]
    stage: int
    region_index: int


@dataclass(frozen=True)
class HaverWitness:
    epsilon_schedule: Schedule
    families: tuple[DisjointFamily, ...]  # 1-based stages, filtered
    diam_bounds: tuple[Fraction, ...]  # per stage: max region diameter (upper bound)
    covering_witness: tuple[tuple[int, int], ...]  # per point: (stage, region idx)
    traces: tuple[ClaimTrace, ...]
    blocks: tuple[int, ...]
    stage_covers: StageCovers
    # families in the game's first block of the stage covers; None when it
    # fell back to point-isolating boxes
    first_block_families: int | None


def build_haver_witness(
    space: SampledSpace,
    chain: SigmaDecomposition,
    schedule: Schedule,
) -> HaverWitness:
    """Run the full pipeline and validate every invariant.

    The filter keeps exactly the engine-family members analytically inside
    some eps_n/2 ball at that stage's net; the replayed covering claim
    produces the per-point witness and traces.  A replay failure for a point
    inside the horizon indicates an implementation bug and raises;
    exhaustion of the horizon raises ClaimHorizonError.
    """
    for n in range(1, min(chain.horizon, schedule.horizon)):
        if not chain.stage(n).issubset(chain.stage(n + 1)):
            raise CheckFailure(f"chain is not monotone at stage {n}", witness=n)
    stage_covers = build_stage_covers(space, chain, schedule)
    engine_out = sc_plus_select(space, stage_covers.covers)
    # the game leaves its blocks on the covers, a fallback one with a box
    # per point; only the first block's width is read afterwards
    built = stage_covers.covers._blocks
    first = built.get(1)
    first_block_families = None if first is None or first[1] else len(first[0])
    built.clear()
    horizon = schedule.horizon

    families: list[DisjointFamily] = []
    diam_bounds: list[Fraction] = []
    for n in range(1, horizon + 1):
        eps_n = schedule.value(n)
        cover = stage_covers.covers.cover(n)
        raw = engine_out.family(n)
        found = _containing_balls(
            raw.family, cover, stage_covers.nets[n - 1], eps_n / 2, space
        )
        keep = [i for i, ball_idx in enumerate(found) if ball_idx is not None]
        fam = raw.subfamily(keep, witness=[found[i] for i in keep])
        worst = Fraction(0)
        for d in _member_diameters(fam):
            if not d.value_sq < eps_n * eps_n:
                raise AssertionError(
                    f"a filtered region at stage {n} has diameter >= eps_{n}"
                )
            worst = max(worst, d.value)
        families.append(fam)
        diam_bounds.append(worst)

    # replay the covering claim per point; per-stage owner tables make the
    # per-point lookups O(1): the index of the point's filtered region, -2
    # in an engine region the filter dropped, -1 in none
    blocks = engine_out.blocks
    usable = engine_out.usable_blocks()
    owners = []
    for n, fam in enumerate(families, start=1):
        owner = np.full(space.n, -1, dtype=np.int64)
        owner[engine_out.family(n).family.indices] = -2
        boxes = fam.family
        owner[boxes.indices] = np.repeat(np.arange(len(fam)), np.diff(boxes.indptr))
        owners.append(owner)
    witness: list[tuple[int, int]] = []
    traces: list[ClaimTrace] = []
    for p in range(space.n):
        entry = chain.tail_start[p]
        trace = _replay_claim(p, entry, usable, blocks, owners, horizon)
        traces.append(trace)
        witness.append((trace.stage, trace.region_index))

    covered = union_of(space, families)
    if not covered.all():
        raise AssertionError("claim replay succeeded but the union misses a point")

    return HaverWitness(
        schedule,
        tuple(families),
        tuple(diam_bounds),
        tuple(witness),
        tuple(traces),
        blocks,
        stage_covers,
        first_block_families,
    )


def _containing_balls(
    boxes: BoxFamily,
    cover: Cover,
    net: tuple[int, ...],
    radius: Fraction,
    space: SampledSpace,
) -> list[int | None]:
    """Per box, the index (within the cover) of the first net ball
    analytically containing it, or None.

    Only the balls holding the box's anchor point can contain it (the anchor
    lies in the box), so the candidate prune is exact and complete; one
    SampledSpace.balls call gives them.  Boxes with no sample points are
    dropped: they contribute nothing to any invariant.
    """
    if not len(boxes):
        return []
    indptr, points = space.balls(net, space.scaled_bound(radius))
    # per point, the balls holding it, in net order
    ball = np.repeat(np.arange(len(net)), np.diff(indptr))
    by_point = np.argsort(points, kind="stable")
    held = np.zeros(space.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(points, minlength=space.n), out=held[1:])
    cands = [
        ball[by_point[held[p] : held[p + 1]]] if p >= 0 else ()
        for p in boxes.anchors.tolist()
    ]
    found = containers(boxes, cover, cands, sample=False)
    return [None if hit is None else hit[0] for hit in found]


def _member_diameters(fam: DisjointFamily) -> list:
    """space.diameter of every member; a member of one point has 0 with no
    query (every member of a point-isolating family)."""
    boxes = fam.family
    point = diameter(fam.space, [0])
    return [
        point if k == 1 else diameter(fam.space, boxes.members(i))
        for i, k in enumerate(np.diff(boxes.indptr).tolist())
    ]


def _replay_claim(
    p: int,
    entry: int,
    usable: list[tuple[int, int]],
    blocks: tuple[int, ...],
    owners: list[np.ndarray],
    horizon: int,
) -> ClaimTrace:
    """The claim for point p: the first covering stage j of the first usable
    block at or past its entry stage; owners[j - 1][p] is the filtered region
    covering p at stage j, -2 when only a dropped region covers it, or -1."""
    saw_eligible = False
    for lo, hi in usable:
        if lo < entry:
            continue
        saw_eligible = True
        for j in range(lo, min(hi, horizon + 1)):
            region_idx = int(owners[j - 1][p])
            if region_idx == -1:
                continue
            if region_idx == -2:
                raise CheckFailure(
                    f"claim replay failed at point {p}: the region covering it "
                    f"at stage {j} did not survive the filter (an "
                    f"implementation bug, not a math failure)",
                    witness=(p, j, blocks),
                )
            return ClaimTrace(p, entry, (lo, hi), j, region_idx)
    if saw_eligible:
        raise CheckFailure(
            f"claim replay failed at point {p}: no eligible block contains a "
            f"covering stage (an implementation bug, not a math failure)",
            witness=(p, entry, blocks),
        )
    raise ClaimHorizonError(
        f"claim replay for point {p} (chain entry stage {entry}) needs a "
        f"materialized block at or past stage {entry}; blocks {blocks} within "
        f"horizon {horizon} are exhausted",
        witness=(p, entry, blocks),
    )
