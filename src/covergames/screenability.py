"""Pairwise-disjoint open refinements via shifted-brick colorings.

On a grid of spacing h in dimension d, bricks live on a lattice whose faces
sit at h/2 modulo h, so no sample point ever lies on a face and the open
bricks inherit the half-open cells' sample points without any shrinking.
Class c (of d+1) takes runs of d consecutive cells starting at cell index c
modulo d+1, leaving one-cell gaps, so same-class bricks are separated by at
least one cell side and the d+1 classes cover by pigeonhole: a point's cell
index k_i on axis i only rules out the single class congruent to k_i + 1.

Cell sides are whole multiples of h.  This working-resolution discipline is
what keeps the search honest: a single color class can never cover a grid
sample (the face at h/2 separates the points 0 and h), which is exactly the
dimension-theoretic behavior the construction is meant to exhibit.  Past
the 64 refutations it reports, the finite-C search refutes a candidate
whose classes miss a point from the residues of the cells each axis holds
at its side alone.  Covers strictly finer than the sample resolution
admit no such brick grid; the game pipelines then fall back to
point-isolating boxes (a finite sample is honestly zero-dimensional at
sub-resolution scales), but the public refinement operations never do.

Cantor samples use level boxes instead: fattened hulls of the surviving
level-L interval groups, one class, gaps at least a removed middle third.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .covers import (
    Ball,
    Box,
    BoxFamily,
    Cover,
    CoverSeq,
    DisjointFamily,
    _clamped,
    _int_array,
    _scaled,
    containers,
    lebesgue_argmax_regions,
    lebesgue_number,
    union_of,
)
from .exact import CheckFailure, InputError, exact_sqrt, sqrt_lower
from .space import CantorStructure, GridStructure, SampledSpace, first_hit


class ResolutionError(CheckFailure):
    """The cover's Lebesgue number is too small for any admissible brick size."""


def _grid_params(space: SampledSpace) -> tuple[int, Fraction]:
    st = space.structure
    if not isinstance(st, GridStructure):
        raise InputError("brick refinement needs a grid space")
    return st.dim, st.h


def _screen_dim(space: SampledSpace) -> int:
    """The space's screening dimension.  The box constructions need a grid or
    Cantor structure and measure extents in the coordinate metrics, which
    the 2-adic variant lacks."""
    d = space.screen_dim
    if d is None or space.metric_kind == "cantor_2adic":
        raise InputError(
            "screenability constructions need a grid or Cantor space under "
            "the euclidean or chebyshev metric"
        )
    return d


def _cell_multiple(space: SampledSpace, below: Fraction) -> int:
    """The largest whole m with cell side m*h strictly below the given
    bound, or 0 when there is none."""
    return max(0, ceil(below / _grid_params(space)[1]) - 1)


def build_brick_grid(space: SampledSpace, cell_side: Fraction) -> tuple[BoxFamily, ...]:
    """Lay out the d+1 shifted brick classes at the given cell side.

    Only bricks containing at least one sample point are materialized; empty
    bricks contribute nothing to sample coverage and are dropped.  A class's
    box ends sit over the denominator lcm(scale, 2 / h) and its members
    come from each point's cell on every axis.
    """
    d, h = _grid_params(space)
    s = Fraction(cell_side)
    m = s / h
    if s <= 0 or m.denominator != 1:
        raise InputError("cell side must be a positive multiple of the grid spacing")
    m = int(m)
    period = d + 1
    # the sample is the full product {0, h, ..., 1}^d and the point k*h lies
    # in cell (2k-1)//(2m) on its axis, so the occupied bricks of a class are
    # the product of its occupied slots on one axis, in sorted order
    top = (2 * int(1 / h) - 1) // (2 * m)
    den = lcm(space.scale, (h / 2).denominator)
    hd = int(h * den)  # even: the faces sit at h/2 modulo h
    cells = _brick_cells(space, m)
    classes = []
    for c in range(period):
        shifted = range(-1 - c, top + 1 - c)
        slots = sorted({x // period for x in shifted if x % period != d})
        lo = _int_array([hd // 2 + (z * period + c) * m * hd for z in slots])
        grid = np.indices((len(slots),) * d).reshape(d, -1).T  # product order
        # brick of each point: its slot on every axis, unless a gap cell
        z, gap = np.divmod(cells - c, period)
        inside = np.flatnonzero((gap != d).all(axis=1))
        brick = np.ravel_multi_index(tuple((z[inside] - slots[0]).T), (len(slots),) * d)
        indptr = np.zeros(len(grid) + 1, dtype=np.int64)
        np.cumsum(np.bincount(brick, minlength=len(grid)), out=indptr[1:])
        indices = inside[np.argsort(brick, kind="stable")]
        lo = lo[grid]
        classes.append(BoxFamily(space, den, lo, lo + d * m * hd, indptr, indices))
    return tuple(classes)


def _brick_cells(space: SampledSpace, m: int) -> np.ndarray:
    """Each point's brick cell on every axis at cell side m*h: the point k*h
    lies in cell (2k-1)//(2m)."""
    _, h = _grid_params(space)
    cells = space._icoords // int(h * space.scale)  # the grid index on every axis
    cells *= 2
    cells -= 1
    cells //= 2 * m
    return cells.astype(np.int32)


def _witness_class(boxes: BoxFamily, cover: Cover, lam: Fraction) -> DisjointFamily:
    """Attach Lebesgue-certified parents to a class of boxes: the region the
    cover's Lebesgue table certifies at each box's anchor."""
    widx = lebesgue_argmax_regions(cover, boxes.anchors, lam)
    return DisjointFamily(boxes, cover, witness=widx.tolist())


def _queried_family(space: SampledSpace, den: int, lo, hi) -> BoxFamily:
    """The open boxes lo / den < x < hi / den with their members from one
    batched box query: x > lo / den iff x > floor(lo / f) and x < hi / den
    iff x <= ceil(hi / f) - 1 for a scaled coordinate x, f = den / scale.
    On an int64 table, ends past int64 are clamped to its range, which
    selects the same points."""
    f = den // space.scale
    gt, le = lo // f, -((-hi) // f) - 1
    if gt.dtype == object and space._fast:
        gt, le = _clamped(gt.tolist()), _clamped(le.tolist())
    return BoxFamily(space, den, lo, hi, *space.boxes(gt, le))


def _point_boxes(space: SampledSpace, gamma: Fraction) -> BoxFamily:
    """The boxes (p - gamma, p + gamma) around the sample points p, in
    point order; the batched query checks that each holds its own point
    and no other."""
    den = lcm(space.scale, gamma.denominator)
    f, g = den // space.scale, int(gamma * den)
    fam = _queried_family(
        space, den, _scaled(space._icoords, f, -g), _scaled(space._icoords, f, g)
    )
    every = np.arange(space.n + 1)
    held = np.array_equal(fam.indptr, every) and np.array_equal(fam.indices, every[:-1])
    if not held:
        raise AssertionError("a point-isolating box holds a point other than its own")
    return fam


def brick_refinement(
    space: SampledSpace, cover: Cover
) -> tuple[DisjointFamily, ...]:
    """d+1 pairwise-disjoint families jointly covering the sample, each
    refining the cover; 1 family on Cantor samples (dimension zero).

    Raises ResolutionError when no admissible brick size fits below
    lambda/(2d): the cover is finer than the sample resolution supports.
    """
    return _block(CoverSeq(space, [cover] * (_screen_dim(space) + 1)), 1)[0]


def _assert_jointly_cover(space, families) -> None:
    union = union_of(space, families)
    if not union.all():
        missing = int(np.flatnonzero(~union)[0])
        raise AssertionError(
            f"brick classes fail to cover sample point {missing}"
        )


def _cantor_level_family(
    space: SampledSpace, cover: Cover, lam: Fraction
) -> DisjointFamily:
    """One class of fattened level-interval boxes on a Cantor sample.

    Level L groups the sample into surviving-interval clusters of euclidean
    extent 3**-L - 3**-depth, pairwise separated by at least 3**-L; each
    fattened hull sits analytically inside the Lebesgue ball of its leftmost
    point.  The single point space degenerates to one box.
    """
    if space.n == 1:
        gamma = min(lam / 2, space.mesh / 2)
        return _witness_class(_point_boxes(space, gamma), cover, lam)
    st = space.structure
    if not isinstance(st, CantorStructure):
        raise AssertionError(f"Cantor brick class on a space with structure {st!r}")
    depth = st.depth

    def gamma(level: int) -> Fraction:
        return min(Fraction(1, 4 * 3**level), lam / 2)

    # the coarsest level whose fattened groups fit in a Lebesgue ball; at
    # level depth every group is one point and gamma <= lam / 2 < lam
    level = next(
        L
        for L in range(depth + 1)
        if Fraction(1, 3**L) - Fraction(1, 3**depth) + gamma(L) < lam
    )
    return _witness_class(_cantor_level_boxes(space, level, gamma(level)), cover, lam)


def _cantor_level_boxes(space: SampledSpace, level: int, gamma: Fraction) -> BoxFamily:
    """The level-interval groups of a Cantor sample, each hull fattened by
    gamma, left to right.  Point c joins group floor(c * 3**level); the
    groups' scaled extents are computed once per (space, level) from the
    integer table, in Python ints where int64 could overflow, and kept on
    the space.  The members come from one batched box query."""
    extents = space._cantor_levels.get(level)
    if extents is None:
        col = np.sort(space._icoords[:, 0])
        if max(-int(col[0]), int(col[-1])) * 3**level >= 2**63:
            col = col.astype(object)
        # floor(c * 3**L) never decreases along the sorted coordinates
        keys = col * 3**level // space.scale
        cut = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        extents = col[np.r_[0, cut]], col[np.r_[cut - 1, col.size - 1]]
        space._cantor_levels[level] = extents
    den = lcm(space.scale, gamma.denominator)
    f, g = den // space.scale, int(gamma * den)
    lo, hi = _scaled(extents[0], f, -g), _scaled(extents[1], f, g)
    return _queried_family(space, den, lo[:, None], hi[:, None])


def _pointwise_family(
    space: SampledSpace, cover: Cover, lam: Fraction
) -> DisjointFamily:
    """Point-isolating boxes: the sub-resolution fallback for game pipelines.

    gamma keeps the family margin-disjoint (pair gaps strictly above the
    space mesh) and every box analytically inside its anchor's Lebesgue ball.
    """
    d = space.coord_dim
    min_gap_sq = space.min_positive_gap_sq()
    g = exact_sqrt(min_gap_sq)
    if g is None:
        g = sqrt_lower(min_gap_sq, space.mesh / 2**20)
    margin = space.mesh
    if g <= margin:
        raise ResolutionError(
            "resolution insufficient: sample points closer than the mesh margin",
            witness=g,
        )
    gamma = min((g - margin) / 4, lam / (4 * d))
    if gamma <= 0:
        raise ResolutionError(
            "resolution insufficient: no room for point-isolating boxes",
            witness=lam,
        )
    return _witness_class(_point_boxes(space, gamma), cover, lam)


def _block(
    covers: CoverSeq, lo: int, allow_pointwise: bool = False
) -> tuple[tuple[DisjointFamily, ...], bool]:
    """The families of the block of covers lo..min(lo+d, horizon), and
    whether the point-isolating fallback built them.

    A grid block gets one brick grid sized below (min of the block's
    Lebesgue numbers)/(2d), and color class c becomes the family of the
    block's c-th cover, so a full block covers by pigeonhole.  A Cantor
    block (width 1) is one level family, which some level always gives.  A
    grid block too fine for bricks raises ResolutionError, unless
    allow_pointwise (the game only), which hands its first cover the
    point-isolating family and the rest empty families.  A block depends
    on its own covers alone, so it is built once per sequence and kept
    there; a fallback block kept there is still refused without
    allow_pointwise.
    """
    blk = covers._blocks.get(lo)
    if blk is not None and (allow_pointwise or not blk[1]):
        return blk
    space = covers.space
    d = _screen_dim(space)
    hi = min(lo + d, covers.horizon)
    block = [covers.cover(n) for n in range(lo, hi + 1)]
    lams = [lebesgue_number(c) for c in block]
    try:
        if not isinstance(space.structure, GridStructure):
            blk = (_cantor_level_family(space, block[0], lams[0]),), False
        elif m := _cell_multiple(space, min(lams) / (2 * d)):
            grid = build_brick_grid(space, m * space.structure.h)
            blk = tuple(map(_witness_class, grid, block, lams)), False
            if hi - lo == d:
                _assert_jointly_cover(space, blk[0])
        else:
            raise ResolutionError(
                f"resolution insufficient for block {lo}..{hi}: Lebesgue "
                f"number {min(lams)} admits no brick side",
                witness=(lo, min(lams)),
            )
    except ResolutionError:
        if not allow_pointwise:
            raise
        first = _pointwise_family(space, block[0], lams[0])
        empty = first.family.take([])
        blk = (first, *(DisjointFamily(empty, cov, ()) for cov in block[1:])), True
    covers._blocks[lo] = blk
    return blk


@dataclass(frozen=True)
class ScSelection:
    """Per-stage disjoint refining families whose union covers the sample."""

    families: tuple[DisjointFamily, ...]  # 1-based: families[n-1] refines cover n
    covering_witness: tuple[tuple[int, int], ...]  # per point: (stage, region idx)
    block_starts: tuple[int, ...]


def _full_block(space: SampledSpace, horizon: int) -> int:
    """The screening dimension d, once the horizon holds a full block."""
    d = _screen_dim(space)
    if horizon < d + 1:
        raise InputError(f"need at least screen_dim+1 = {d + 1} covers, got {horizon}")
    return d


def sc_fin_select(space: SampledSpace, covers: CoverSeq) -> ScSelection:
    """One disjoint refining family per cover, jointly covering the sample.

    Stages are grouped into blocks of screen_dim+1 consecutive covers (see
    _block); a trailing short block contributes families without the
    coverage claim.
    """
    starts = range(1, covers.horizon + 1, _full_block(space, covers.horizon) + 1)
    covers.validate()
    families = [f for lo in starts for f in _block(covers, lo)[0]]
    refs = [(n, r) for n, fam in enumerate(families, start=1) for r in range(len(fam))]
    members = [fam.family.members(i) for fam in families for i in range(len(fam))]
    hit = first_hit(members, space.n)
    if (hit < 0).any():
        missing = int(np.flatnonzero(hit < 0)[0])
        raise CheckFailure(
            f"selection fails to cover sample point {missing}", witness=missing
        )
    return ScSelection(
        tuple(families), tuple(refs[h] for h in hit.tolist()), tuple(starts)
    )


@dataclass(frozen=True)
class FiniteCWitness:
    n: int
    families: tuple[DisjointFamily, ...]


@dataclass(frozen=True)
class NoWitnessAtHorizon:
    horizon: int
    candidates_refuted: int
    refutations: tuple[tuple[str, int], ...]  # (candidate label, uncovered point)


_REFUTATIONS_KEPT = 64  # the first refutations a negative answer carries


def finite_c_search(
    space: SampledSpace, covers: CoverSeq
) -> FiniteCWitness | NoWitnessAtHorizon:
    """Smallest n <= horizon for which some brick candidate at the working
    resolution yields disjoint refinements of covers 1..n that jointly cover.

    For each n the standard block construction is tried first; failing that,
    every admissible candidate (each whole-h cell side up to the largest
    cover element, each class rotation; each Cantor level) is tried, keeping
    per candidate only the boxes that refine.  On a grid of dimension d the
    answer is d+1 for generic covers whenever the resolution suffices.  A
    negative answer carries the count of refuted candidates and the first 64
    refutations, each the lowest sample point the kept boxes miss.  Past
    those 64, a candidate whose unfiltered classes for stages 1..n miss a
    point is refuted by that alone (the kept boxes are some of the class
    boxes), as per-axis cell residues show, with no containment test, no
    brick layout and no point visited.
    """
    covers.validate()
    d = _screen_dim(space)
    refutations: list[tuple[str, int]] = []
    count = 0
    for n in range(1, covers.horizon + 1):
        prefix = CoverSeq(space, covers.covers[:n])
        starts = range(1, n + 1, d + 1)
        try:
            families = [f for lo in starts for f in _block(prefix, lo)[0]]
            if union_of(space, families).all():
                return FiniteCWitness(n, tuple(families))
        except ResolutionError:
            pass
        found, tried = _scan_candidates(space, prefix, refutations)
        count += tried
        if found is not None:
            return FiniteCWitness(n, found)
    return NoWitnessAtHorizon(
        covers.horizon, count, tuple(refutations[:_REFUTATIONS_KEPT])
    )


def _candidates(space: SampledSpace, horizon_extent: Fraction, n: int):
    """All brick candidates at the working resolution, in scan order, as
    (misses, candidate): candidate() gives the label and class list (a
    side's layout is built once, when first tested), and misses says that
    the unfiltered classes for stages 1..n leave a point out.  At side m*h
    every axis of the full grid holds exactly the cells -1 .. (2N-1)//(2m),
    N = 1/h, and class c leaves out the points with some cell = c-1 mod d+1,
    so a class set S misses a point iff |S| <= d and each (c-1) mod (d+1),
    c in S, is among those cells.  A Cantor level family holds every point."""
    if isinstance(space.structure, GridStructure):
        d, h = _grid_params(space)
        period = d + 1
        # under rotation rot, stage j+1 takes class (rot + j) mod (d+1)
        needs = [{(rot + j - 1) % period for j in range(n)} for rot in range(period)]
        for m in range(1, _cell_multiple(space, horizon_extent) + 1):
            cells = range(-1, (2 * int(1 / h) - 1) // (2 * m) + 1)
            present = {c % period for c in cells[:period]}
            layout = []  # the side's classes, once one rotation is tested
            for rot in range(period):

                def candidate(m=m, rot=rot, layout=layout):
                    if not layout:
                        layout.extend(build_brick_grid(space, m * h))
                    return f"side={m * h},rot={rot}", layout[rot:] + layout[:rot]

                yield n <= d and needs[rot] <= present, candidate
    elif isinstance(space.structure, CantorStructure):
        for L in range(space.structure.depth + 1):
            yield False, lambda L=L: (
                f"level={L}", [_cantor_level_boxes(space, L, Fraction(1, 4 * 3**L))]
            )


def _max_element_extent(covers: CoverSeq) -> Fraction:
    """Upper bound on how large a refining box can be: the widest cover
    element (complement shapes are unbounded, capped at the sample width)."""
    cap = covers.space.diameter_upper_bound() + 1
    worst = Fraction(0)
    for cover in covers.covers:
        for r in cover.regions:
            if isinstance(r, Ball):
                worst = max(worst, 2 * r.radius)
            elif isinstance(r, Box):
                worst = max(worst, max(h - l for l, h in zip(r.lo, r.hi)))
            else:
                return cap
    return min(worst + 1, cap)


def _scan_candidates(
    space: SampledSpace, prefix: CoverSeq, refutations: list[tuple[str, int]]
) -> tuple[tuple[DisjointFamily, ...] | None, int]:
    """Try every brick candidate against the prefix covers; return witnessed
    families on the first success, recording a refutation point otherwise
    (past the kept refutations, one the unfiltered classes show is only
    counted)."""
    n = prefix.horizon
    tried = 0
    for misses, candidate in _candidates(space, _max_element_extent(prefix), n):
        tried += 1
        if misses and len(refutations) >= _REFUTATIONS_KEPT:
            continue
        label, classes = candidate()
        staged = []  # (class, indices of the boxes kept, their parents)
        union = np.zeros(space.n, dtype=bool)
        for stage in range(1, n + 1):
            cls = classes[(stage - 1) % len(classes)]
            found = containers(cls, prefix.cover(stage))
            kept = [hit is not None for hit in found]
            staged.append((cls, np.flatnonzero(kept), [h[0] for h in found if h]))
            union[cls.indices[np.repeat(kept, np.diff(cls.indptr))]] = True
        if union.all():
            families = tuple(
                DisjointFamily(cls.take(keep), prefix.cover(stage), witness=parents)
                for stage, (cls, keep, parents) in enumerate(staged, start=1)
            )
            return families, tried
        refutations.append((f"{label},n={n}", int(np.flatnonzero(~union)[0])))
    return None, tried
