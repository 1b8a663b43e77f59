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
and the covering claim is replayed for every point: pick a materialized block
at or past the point's chain entry stage, find a covering stage j inside it,
and observe that the region containing the point cannot sit in the
complement piece (the point is in stage j), so it survived the filter.
Points whose replay would need blocks past the horizon raise a documented
horizon-exhausted error rather than being silently accepted.  The replay
runs on per-point int arrays, and a point's trace is built when read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .covers import (
    Ball,
    BoxFamily,
    CoClosedBalls,
    Cover,
    CoverSeq,
    DisjointFamily,
    _csr_take,
    _members,
    containers,
    covers_check,
    region_members,
    union_of,
)
from .exact import CheckFailure, InputError
from .game import sc_plus_select
from .netting import SigmaDecomposition, greedy_net
from .space import (
    SampledSpace,
    Schedule,
    _csr_of_pairs,
    csr,
    diameter_of_sq,
    diameters_sq,
    epsilon_schedule,
    paired_delta,
)


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
    """The per-stage two-piece covers with their net radii."""

    covers: CoverSeq
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
        centers = greedy_net(space, stage, delta_n).centers
        half = eps_n / 2  # one radius object: the member builder hashes it once
        regions: list = [Ball(space, c, half) for c in centers]
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
        comp_idx.append(len(regions) - 1)
    return StageCovers(CoverSeq(space, covers), tuple(deltas), tuple(comp_idx))


@dataclass(frozen=True)
class ClaimTrace:
    point: int
    entry_stage: int  # least n with the point in chain stage n
    block: tuple[int, int]
    stage: int
    region_index: int


class ClaimTraces(Sequence):
    """The claim trace of every point, held as int arrays: a ClaimTrace is
    built when it is read."""

    def __init__(self, entry: np.ndarray, witness: np.ndarray, spans: np.ndarray):
        self._entry, self._witness, self._spans = entry, witness, spans

    def __len__(self) -> int:
        return len(self._entry)

    def __getitem__(self, p):
        if isinstance(p, slice):
            return [self[q] for q in range(*p.indices(len(self)))]
        p = range(len(self))[p]
        stage, region = self._witness[p].tolist()
        lo, hi = self._spans[p].tolist()
        return ClaimTrace(p, int(self._entry[p]), (lo, hi), stage, region)


@dataclass(frozen=True)
class HaverWitness:
    epsilon_schedule: Schedule
    families: tuple[DisjointFamily, ...]  # 1-based stages, filtered
    diam_bounds: tuple[Fraction, ...]  # per stage: max region diameter (upper bound)
    covering_witness: np.ndarray  # (n, 2): per point (stage, region idx)
    traces: ClaimTraces
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
        raw = engine_out.family(n)
        found = _containing_balls(raw.family, stage_covers.covers.cover(n))
        kept = [(i, hit) for i, hit in enumerate(found) if hit is not None]
        keep = [i for i, _ in kept]
        fam = raw.subfamily(
            keep, witness=[hit[0] for _, hit in kept], evidence=[hit[1] for _, hit in kept]
        )
        # squared diameters as scaled integers: one comparison per stage, and
        # one diameter per distinct value
        worst = diameters_sq(space, fam.family.indptr, fam.family.indices)
        if len(worst) and not worst.max() <= space.scaled_bound(eps_n):
            raise AssertionError(
                f"a filtered region at stage {n} has diameter >= eps_{n}"
            )
        values = (diameter_of_sq(space, w).value for w in set(worst.tolist()))
        families.append(fam)
        diam_bounds.append(max(values, default=Fraction(0)))

    # per-stage owner tables: the index of the point's filtered region, -2
    # in an engine region the filter dropped, -1 in none
    blocks = engine_out.blocks
    owners = []
    for n, fam in enumerate(families, start=1):
        owner = np.full(space.n, -1, dtype=np.int64)
        owner[engine_out.family(n).family.indices] = -2
        boxes = fam.family
        owner[boxes.indices] = np.repeat(np.arange(len(fam)), np.diff(boxes.indptr))
        owners.append(owner)
    entry = np.array(chain.tail_start, dtype=np.int64)
    witness, spans = _replay_claims(
        entry, engine_out.usable_blocks(), blocks, owners, horizon
    )

    covered = union_of(space, families)
    if not covered.all():
        raise AssertionError("claim replay succeeded but the union misses a point")

    return HaverWitness(
        schedule,
        tuple(families),
        tuple(diam_bounds),
        witness,
        ClaimTraces(entry, witness, spans),
        blocks,
        stage_covers,
        first_block_families,
    )


def _containing_balls(boxes: BoxFamily, cover: Cover) -> list[tuple[int, str] | None]:
    """Per box, containers' verdict for the first net ball of a stage cover
    (its regions but the last, the complement piece) analytically
    containing it: (ball index, evidence), or None.

    Only the balls holding the box's anchor point can contain it (the anchor
    lies in the box), so the candidate prune is exact and complete; the
    balls' members, kept on them since the cover was checked, give them,
    handed to containers as CSR rows.  Boxes with no sample points are
    dropped: they contribute nothing to any invariant.
    """
    if not len(boxes):
        return []
    space = cover.space
    indptr, points = csr(_members(cover.regions[:-1]))
    k = len(indptr) - 1
    ball = np.repeat(np.arange(k), np.diff(indptr))
    # per point, the balls holding it, in net order; a box with no anchor
    # reads the empty row past the last point
    held, ball = _csr_of_pairs(space.n + 1, k, [points.astype(np.int64) * k + ball])
    anchors = boxes.anchors
    cands = _csr_take(held, ball, np.where(anchors < 0, space.n, anchors))
    return containers(boxes, cover, cands, sample=False)


def _replay_claims(
    entry: np.ndarray,
    usable: list[tuple[int, int]],
    blocks: tuple[int, ...],
    owners: list[np.ndarray],
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The claim for every point p: the first covering stage j of the first
    usable block at or past its entry stage entry[p]; owners[j - 1][p] is
    the filtered region covering p at stage j, -2 when only a dropped region
    covers it, or -1.  Returns per point (stage, region index) and the
    block (start, end), as two (n, 2) int arrays.

    Every point is replayed at once, block by block and stage by stage, each
    point settled at its first stage with an owner.  A failure is reported
    for the lowest failing point, as the replay of that point alone finds
    it."""
    n = len(entry)
    witness = np.full((n, 2), -1, dtype=np.int64)
    spans = np.zeros((n, 2), dtype=np.int64)
    open_ = np.ones(n, dtype=bool)
    for lo, hi in usable:
        eligible = open_ & (entry <= lo)
        for j in range(lo, min(hi, horizon + 1)):
            owner = owners[j - 1]
            hit = eligible & (owner != -1)
            witness[hit, 0], witness[hit, 1] = j, owner[hit]
            spans[hit] = (lo, hi)
            eligible &= ~hit
            open_ &= ~hit
    failed = np.flatnonzero(open_ | (witness[:, 1] == -2))
    if not failed.size:
        return witness, spans
    p = int(failed[0])
    if witness[p, 1] == -2:
        j = int(witness[p, 0])
        raise CheckFailure(
            f"claim replay failed at point {p}: the region covering it "
            f"at stage {j} did not survive the filter (an "
            f"implementation bug, not a math failure)",
            witness=(p, j, blocks),
        )
    entry_p = int(entry[p])
    if any(lo >= entry_p for lo, _ in usable):
        raise CheckFailure(
            f"claim replay failed at point {p}: no eligible block contains a "
            f"covering stage (an implementation bug, not a math failure)",
            witness=(p, entry_p, blocks),
        )
    raise ClaimHorizonError(
        f"claim replay for point {p} (chain entry stage {entry_p}) needs a "
        f"materialized block at or past stage {entry_p}; blocks {blocks} within "
        f"horizon {horizon} are exhausted",
        witness=(p, entry_p, blocks),
    )
