"""Open regions, covers, refinement and disjointness checks, Lebesgue numbers.

Region shapes are analytic descriptions (open metric balls centered at sample
points, axis boxes, complements of finite unions of closed balls) evaluated
exactly against a sample.  Containment and separation are decided by exact
analytic tests where the shape pair supports one, and on the sample
otherwise; every check reports which kind of evidence it used.

Box ends are open by default.  A closed end is allowed only where it is
vacuous on the sample (at or beyond the sample's bounding box), which is how
relatively-open truncations like [0, 0.6) on [0,1] are expressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .exact import (
    CheckFailure,
    InputError,
    clamp_int64,
    exact_sqrt,
    int_le_bound,
    int_lt_bound,
    sqrt_lower,
    sqrt_upper,
)
from .space import SampledSpace, first_hit

UNCOVERED_REPORT_CAP = 16


class _Region:
    """Value identity shared by the region shapes: equal when the type, the
    space (by identity) and every other field agree.  The hash is computed
    on first use and kept on the region."""

    def _values(self) -> tuple:
        fields = self.__dataclass_fields__
        return tuple(getattr(self, f) for f in fields if f != "space")

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.space is other.space
            and self._values() == other._values()
        )

    def __hash__(self):
        return _derived(
            self, "_hash", lambda r: hash((id(r.space), type(r), r._values()))
        )


@dataclass(frozen=True, eq=False)
class Ball(_Region):
    """Open metric ball around a sample point: {x : d(x, center) < radius}."""

    space: SampledSpace
    center: int
    radius: Fraction

    def __post_init__(self):
        if not 0 <= self.center < self.space.n:
            raise InputError(f"ball center index {self.center} out of range")
        if self.radius <= 0:
            raise InputError("ball radius must be positive")


@dataclass(frozen=True, eq=False)
class Box(_Region):
    """Open axis box, with optionally closed ends at the sample boundary."""

    space: SampledSpace
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    lo_closed: tuple[bool, ...] = ()
    hi_closed: tuple[bool, ...] = ()

    def __post_init__(self):
        d = self.space.coord_dim
        if len(self.lo) != d or len(self.hi) != d:
            raise InputError("box bounds must match the space dimension")
        if not self.lo_closed:
            object.__setattr__(self, "lo_closed", (False,) * d)
        if not self.hi_closed:
            object.__setattr__(self, "hi_closed", (False,) * d)
        if len(self.lo_closed) != d or len(self.hi_closed) != d:
            raise InputError("box end flags must match the space dimension")
        for i in range(d):
            if self.lo[i] >= self.hi[i]:
                raise InputError("box needs lo < hi on every axis")
        # closed ends must be vacuous on the sample (relative openness)
        for i in range(d):
            if self.lo_closed[i] and self.lo[i] > self.space.axis_min[i]:
                raise InputError("closed lower end must sit at/below the sample")
            if self.hi_closed[i] and self.hi[i] < self.space.axis_max[i]:
                raise InputError("closed upper end must sit at/above the sample")

    def corners(self):
        d = len(self.lo)
        for mask in range(1 << d):
            yield tuple(
                self.hi[i] if (mask >> i) & 1 else self.lo[i] for i in range(d)
            )


@dataclass(frozen=True, eq=False)
class CoClosedBalls(_Region):
    """Complement of a finite union of closed balls: d(x, c_i) > r_i for all i."""

    space: SampledSpace
    balls: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        for c, r in self.balls:
            if not 0 <= c < self.space.n:
                raise InputError(f"closed-ball center index {c} out of range")
            if r <= 0:
                raise InputError("closed-ball radius must be positive")


OpenRegion = Union[Ball, Box, CoClosedBalls]


# -- membership -------------------------------------------------------------------


def _derived(region: OpenRegion, name: str, make):
    """make(region), computed once and kept on the (frozen) region."""
    value = region.__dict__.get(name)
    if value is None:
        value = make(region)
        object.__setattr__(region, name, value)
    return value


def _box_bounds(region: Box) -> tuple[tuple[int, int], ...]:
    """Per axis (gt, le): a sample point is in the box iff gt < x <= le on
    every axis, x its scaled integer coordinate."""
    space = region.space
    out = []
    for i in range(space.coord_dim):
        lo_s = region.lo[i] * space.scale
        hi_s = region.hi[i] * space.scale
        if region.lo_closed[i]:
            # x >= lo  <=>  ix >= ceil(lo_s)  <=>  ix > ceil(lo_s) - 1
            gt = -int_le_bound(-lo_s) - 1
        else:
            gt = int_le_bound(lo_s)  # x > lo  <=>  ix > floor(lo_s)
        if region.hi_closed[i]:
            le = int_le_bound(hi_s)  # x <= hi  <=>  ix <= floor(hi_s)
        else:
            le = int_lt_bound(hi_s)  # x < hi   <=>  ix <= ceil(hi_s)-1
        if space._fast:
            gt, le = clamp_int64(gt), clamp_int64(le)
        out.append((gt, le))
    return tuple(out)


def _make_members(region: OpenRegion) -> np.ndarray:
    space = region.space
    if isinstance(region, Ball):
        members = space.ball(region.center, space.scaled_bound(region.radius))
    elif isinstance(region, Box):
        members = space.box(_box_bounds(region))
    else:
        inside = np.zeros(space.n, dtype=bool)
        for r, centers in _by_radius(region.balls).items():
            inside |= space.ball_union(centers, space.scaled_bound(r, closed=True))
        members = np.flatnonzero(~inside).astype(np.int32)
    members.flags.writeable = False
    return members


def region_members(region: OpenRegion) -> np.ndarray:
    """Sorted, read-only int32 indices of the sample points inside the
    region, computed once and kept on the region.

    The space answers the query (SampledSpace.ball and .box, which on an
    int64 euclidean or chebyshev table read only a first-axis window); a
    complement of closed balls is the complement of one
    SampledSpace.ball_union per radius.
    """
    return _derived(region, "_members", _make_members)


def region_mask(region: OpenRegion) -> np.ndarray:
    """Boolean membership over all sample points: a dense view of
    region_members, built on each call."""
    mask = np.zeros(region.space.n, dtype=bool)
    mask[region_members(region)] = True
    return mask


def _all_in(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every entry of the sorted array a occurs in the sorted b."""
    k = b.searchsorted(a)
    return not a.size or bool(k[-1] < b.size and (b[k] == a).all())


def contains(region: OpenRegion, p: int) -> bool:
    """Exact membership of sample point p in the region: a binary search in
    its members."""
    if not 0 <= p < region.space.n:
        raise InputError(f"point index {p} out of range")
    return _all_in(np.array([p]), region_members(region))


# -- covers -------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    ok: bool
    assignment: tuple[int, ...] | None  # region index per sample point
    failure_point: int | None
    uncovered: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


class Cover:
    """A finite list of regions intended to cover the sample.

    Validation is lazy (covers_check); intermediate non-covering families are
    first-class values in the longer pipelines.
    """

    def __init__(self, space: SampledSpace, regions: Sequence[OpenRegion]):
        for r in regions:
            if r.space is not space:
                raise InputError("cover regions must live on the cover's space")
        self.space = space
        self.regions = tuple(regions)
        self._lebesgue: Fraction | None = None
        self._table: _LebesgueTable | None = None


def _by_radius(balls) -> dict[Fraction, list[int]]:
    """The centers of (center, radius) pairs, grouped by radius.  A run of
    pairs sharing one radius object hashes it once, not once per pair."""
    groups: dict[Fraction, list[int]] = {}
    last = group = None
    for c, r in balls:
        if r is not last:
            group, last = groups.setdefault(r, []), r
        group.append(c)
    return groups


def union_mask(space: SampledSpace, regions) -> np.ndarray:
    """Boolean mask of the sample points lying in some region: the balls of
    one radius are one SampledSpace.ball_union, which keeps no members on
    them; every other region adds its members."""
    out = np.zeros(space.n, dtype=bool)
    balls = []
    for r in regions:
        if isinstance(r, Ball):
            balls.append((r.center, r.radius))
        else:
            out[region_members(r)] = True
    for r, centers in _by_radius(balls).items():
        out |= space.ball_union(centers, space.scaled_bound(r))
    return out


def covers_check(cover: Cover) -> CoverageReport:
    """Per-point region assignment, or the first uncovered point.

    The assignment picks the lowest containing region index per point; the
    failure point is the lowest-index uncovered point, with further uncovered
    points reported up to a cap.
    """
    members = [region_members(r) for r in cover.regions]
    assignment = first_hit(members, cover.space.n)
    uncovered = np.flatnonzero(assignment < 0)
    if uncovered.size:
        return CoverageReport(
            False,
            None,
            int(uncovered[0]),
            tuple(uncovered[:UNCOVERED_REPORT_CAP].tolist()),
        )
    return CoverageReport(True, tuple(assignment.tolist()), None, ())


# -- analytic containment (sufficient tests) ---------------------------------------


def _axis_interval(region: Ball) -> tuple[list[Fraction], list[Fraction]]:
    space = region.space
    c = space.points[region.center]
    lo = [ci - region.radius for ci in c]
    hi = [ci + region.radius for ci in c]
    return lo, hi


def _point_box_gap_sq(space, p: int, box: Box) -> tuple[Fraction, bool]:
    """Squared metric gap from sample point p to the (closed) box.

    Returns (gap_sq, inside_closed): euclidean sums per-axis clamp gaps,
    chebyshev takes their max.
    """
    coords = space.points[p]
    gaps = []
    for i in range(space.coord_dim):
        x = coords[i]
        if x < box.lo[i]:
            gaps.append(box.lo[i] - x)
        elif x > box.hi[i]:
            gaps.append(x - box.hi[i])
        else:
            gaps.append(Fraction(0))
    if space.metric_kind == "chebyshev":
        g = max(gaps)
        return g * g, all(g == 0 for g in gaps)
    gsq = sum((g * g for g in gaps), Fraction(0))
    return gsq, all(g == 0 for g in gaps)


def analytic_contains(inner: OpenRegion, outer: OpenRegion) -> bool:
    """Exact sufficient test that inner is a subset of outer as analytic sets.

    A True answer certifies true containment in the ambient space; a False
    answer is inconclusive (callers fall back to sample containment).
    The cantor_2adic metric supports only the same-center / same-shape cases.
    """
    space = inner.space
    if outer.space is not space:
        return False
    metric = space.metric_kind

    if isinstance(inner, Ball) and isinstance(outer, Ball):
        if inner.center == outer.center:
            return inner.radius <= outer.radius
        if metric == "cantor_2adic":
            # ultrametric: B(c1,r1) centered anywhere inside B(c2,r2) with
            # r1 <= r2 and d(c1,c2) < r2 is contained
            d_sq = space.distance_sq(inner.center, outer.center)
            return inner.radius <= outer.radius and d_sq < outer.radius**2
        if inner.radius > outer.radius:
            return False
        d_sq = space.distance_sq(inner.center, outer.center)
        return d_sq <= (outer.radius - inner.radius) ** 2

    if metric == "cantor_2adic":
        return False

    if isinstance(inner, Ball) and isinstance(outer, Box):
        lo, hi = _axis_interval(inner)
        for i in range(space.coord_dim):
            lo_ok = lo[i] >= outer.lo[i] if not outer.lo_closed[i] else True
            hi_ok = hi[i] <= outer.hi[i] if not outer.hi_closed[i] else True
            if not (lo_ok and hi_ok):
                return False
        return True

    if isinstance(inner, Ball) and isinstance(outer, CoClosedBalls):
        for c, r in outer.balls:
            d_sq = space.distance_sq(inner.center, c)
            if d_sq < (inner.radius + r) ** 2:
                return False
        return True

    if isinstance(inner, Box) and isinstance(outer, Ball):
        center = space.points[outer.center]
        rsq = outer.radius**2
        for corner in inner.corners():
            if metric == "chebyshev":
                d = max(abs(ci - xi) for ci, xi in zip(corner, center))
                dsq = d * d
            else:
                dsq = sum(
                    ((ci - xi) ** 2 for ci, xi in zip(corner, center)), Fraction(0)
                )
            if dsq >= rsq:
                return False
        return True

    if isinstance(inner, Box) and isinstance(outer, Box):
        for i in range(len(inner.lo)):
            if inner.lo_closed[i] and not outer.lo_closed[i]:
                if outer.lo[i] >= inner.lo[i]:
                    return False
            elif outer.lo[i] > inner.lo[i]:
                return False
            if inner.hi_closed[i] and not outer.hi_closed[i]:
                if outer.hi[i] <= inner.hi[i]:
                    return False
            elif outer.hi[i] < inner.hi[i]:
                return False
        return True

    if isinstance(inner, Box) and isinstance(outer, CoClosedBalls):
        for c, r in outer.balls:
            gap_sq, inside = _point_box_gap_sq(space, c, inner)
            if inside or gap_sq <= r * r:
                return False
        return True

    return False  # CoClosedBalls as inner: sample evidence only


def box_in_ball_verdicts(
    inner: Sequence[OpenRegion], outer: Sequence[OpenRegion]
) -> np.ndarray:
    """Certified float verdicts of analytic_contains(inner[k], outer[k]): 1
    where it is certainly True, 0 where certainly False, -1 where floats
    cannot tell or the pair is not a box and a ball on the first region's
    space, an int64 euclidean or chebyshev space.

    A box lies inside a ball iff its farthest corner does: per axis
    max(hi - c, c - lo), squared and summed (the max under chebyshev),
    against r**2, each bounded by floats rounded outward.
    """
    verdict = np.full(len(inner), -1, dtype=np.int8)
    space = inner[0].space if len(inner) else None
    pick = [
        k
        for k, (b, ball) in enumerate(zip(inner, outer))
        if isinstance(b, Box)
        and isinstance(ball, Ball)
        and b.space is space
        and ball.space is space
    ]
    if not (pick and space.windowed):
        return verdict
    if space.dist_scale_sq >= 2**1000:  # float(space.scale) would overflow
        return verdict
    boxes, balls = [inner[k] for k in pick], [outer[k] for k in pick]
    lo = np.array([[_float_bounds(x) for x in b.lo] for b in boxes])
    hi = np.array([[_float_bounds(x) for x in b.hi] for b in boxes])
    c = space._icoords[[ball.center for ball in balls]] / float(space.scale)
    c = np.stack([_below(c, np.abs(c)), _above(c, np.abs(c))], axis=-1)
    up, down = _diff_bounds(hi, c), _diff_bounds(c, lo)  # hi - c, c - lo
    far = np.maximum(np.maximum(up, down), 0) ** 2
    far = far.max(axis=1) if space.metric_kind == "chebyshev" else far.sum(axis=1)
    mag = far * (space.coord_dim + 1)  # the roundings of the squares and sum
    far_lo, far_hi = _below(far[:, 0], mag[:, 0]), _above(far[:, 1], mag[:, 1])
    r = np.maximum([_float_bounds(ball.radius) for ball in balls], 0) ** 2
    r_lo, r_hi = _below(r[:, 0], r[:, 0]), _above(r[:, 1], r[:, 1])
    verdict[pick] = np.where(far_hi < r_lo, 1, np.where(far_lo >= r_hi, 0, -1))
    return verdict


def sample_contains(inner: OpenRegion, outer: OpenRegion) -> bool:
    return _all_in(region_members(inner), region_members(outer))


def containers(
    inner: Sequence[OpenRegion],
    outer: Cover,
    candidates: Sequence[Sequence[int]] | None = None,
    sample: bool = True,
) -> list[tuple[int, str] | None]:
    """Per inner region, (outer region index, evidence) for the first of its
    candidate outer regions that contains it, or None; the one containment
    decider.  Candidates default to every outer region, in order.

    Analytic evidence comes first: certified float verdicts settle every
    box-in-ball pair they can in one batch, and the exact analytic test runs
    only on the pairs the floats cannot tell, in candidate order, until one
    holds.  Sample evidence (every sample point of the inner region lies in
    the outer one) comes second, unless sample is False.  Analytic evidence
    implies sample evidence.
    """
    regions = outer.regions
    for r in inner:
        if r.space is not outer.space:
            raise InputError("refinement operands must share one space")
    if candidates is None:
        candidates = [range(len(regions))] * len(inner)
    verdict = box_in_ball_verdicts(
        [r for r, cs in zip(inner, candidates) for _ in cs],
        [regions[c] for cs in candidates for c in cs],
    ).tolist()
    out, at = [], 0
    for r, cs in zip(inner, candidates):
        vs, at = verdict[at : at + len(cs)], at + len(cs)
        hit = None
        for c, v in zip(cs, vs):
            if v == 1 or (v < 0 and analytic_contains(r, regions[c])):
                hit = (c, "analytic")
                break
        for c in cs if hit is None and sample else ():
            if sample_contains(r, regions[c]):
                hit = (c, "sample")
                break
        out.append(hit)
    return out


@dataclass(frozen=True)
class RefinesReport:
    ok: bool
    witness: tuple[tuple[int, str], ...] | None  # per fine region: (coarse idx, kind)
    # (fine region index, sample point, None when the fine region holds none)
    counterexample: tuple[int, int | None] | None

    def __bool__(self) -> bool:
        return self.ok


def refines_check(fine: Sequence[OpenRegion], coarse: Cover) -> RefinesReport:
    """Witness that every fine region sits inside some coarse region, as
    containers decides it.  On failure, reports the first offending fine
    region together with a sample point of it that escapes the best
    (largest-overlap) coarse candidate.
    """
    fine = tuple(fine)
    witness = containers(fine, coarse)
    for fidx, found in enumerate(witness):
        if found is None:
            # a cover with no regions has no candidate: every point escapes
            fm = region_members(fine[fidx])
            inside = [np.isin(fm, region_members(c)) for c in coarse.regions]
            escape = fm[~max(inside, key=np.count_nonzero)] if inside else fm
            point = int(escape[0]) if escape.size else None
            return RefinesReport(False, None, (fidx, point))
    return RefinesReport(True, tuple(witness), None)


# -- disjointness ---------------------------------------------------------------------


def _axis_gaps(lo1, hi1, lo2, hi2) -> list[Fraction] | None:
    """Per-axis gaps between two boxes; None when the open boxes intersect."""
    gaps = []
    overlap_all = True
    for a1, b1, a2, b2 in zip(lo1, hi1, lo2, hi2):
        if b1 <= a2:
            gaps.append(a2 - b1)
            overlap_all = False
        elif b2 <= a1:
            gaps.append(a1 - b2)
            overlap_all = False
        else:
            gaps.append(Fraction(0))
    if overlap_all:
        return None
    return gaps


def analytic_gap_ge(
    r1: OpenRegion, r2: OpenRegion, margin: Fraction
) -> Optional[bool]:
    """Exact test that the metric gap between two regions is >= margin.

    Returns None when the shape pair has no analytic gap (complement shapes,
    or the cantor_2adic metric on non-ball shapes).  margin 0 means open-set
    disjointness (touching closures allowed).
    """
    space = r1.space
    metric = space.metric_kind

    def ival(r):
        if isinstance(r, Ball):
            return _axis_interval(r)
        if isinstance(r, Box):
            return list(r.lo), list(r.hi)
        return None

    if isinstance(r1, Ball) and isinstance(r2, Ball):
        d_sq = space.distance_sq(r1.center, r2.center)
        need = r1.radius + r2.radius + margin
        return d_sq >= need * need

    if metric == "cantor_2adic":
        return None
    i1, i2 = ival(r1), ival(r2)
    if i1 is None or i2 is None:
        return None

    if isinstance(r1, Box) and isinstance(r2, Box):
        gaps = _axis_gaps(i1[0], i1[1], i2[0], i2[1])
        if gaps is None:
            return False
        if metric == "chebyshev":
            return max(gaps) >= margin
        gsq = sum((g * g for g in gaps), Fraction(0))
        return gsq >= margin * margin

    # ball vs box: gap = d(center, box) - radius
    ball, box = (r1, r2) if isinstance(r1, Ball) else (r2, r1)
    gap_sq, inside = _point_box_gap_sq(space, ball.center, box)
    need = ball.radius + margin
    if inside:
        return False
    return gap_sq >= need * need


@dataclass(frozen=True)
class DisjointReport:
    ok: bool
    violating_pair: tuple[int, int] | None
    reason: str | None  # "shared_point" | "analytic_overlap" | "gap_below_margin"
    witness_point: int | None

    def __bool__(self) -> bool:
        return self.ok


def pairwise_disjoint_check(
    regions: Sequence[OpenRegion], margin: Fraction
) -> DisjointReport:
    """Pairwise disjointness: no shared sample point, and analytic gap >= margin
    wherever the shape pair supports an exact gap."""
    if margin < 0:
        raise InputError("margin must be nonnegative")
    n = len(regions)
    if n <= 1:
        return DisjointReport(True, None, None, None)
    space = regions[0].space

    # shared sample points: count memberships per point
    members = np.concatenate([region_members(r) for r in regions])
    multi = np.flatnonzero(np.bincount(members, minlength=space.n) > 1)
    if multi.size:
        p = int(multi[0])
        owners = [i for i, r in enumerate(regions) if contains(r, p)]
        return DisjointReport(False, (owners[0], owners[1]), "shared_point", p)

    order = _pair_order(regions, margin)
    for i, j in order:
        verdict = analytic_gap_ge(regions[i], regions[j], margin)
        if verdict is False:
            reason = (
                "analytic_overlap"
                if analytic_gap_ge(regions[i], regions[j], Fraction(0)) is False
                else "gap_below_margin"
            )
            return DisjointReport(False, (i, j), reason, None)
    return DisjointReport(True, None, None, None)


_SWEEP_BATCH = 2**15  # candidate pairs per batch of the sweep (bounds memory)


def _pair_order(regions: Sequence[OpenRegion], margin: Fraction):
    """The index pairs (i, j), i < j, in lexicographic order, that the exact
    gap test must see: all pairs when a ball or co-ball takes part.

    A box pair is skipped only when a conservatively-rounded axis gap
    already exceeds margin in float, which lower-bounds the true metric gap
    in both supported metrics.  The boxes are swept in the order of their
    lower ends on axis 0: a box's candidates are the later boxes whose lower
    end lies below its upper end plus the margin (a binary search), and
    only they see the float test on every axis.
    """
    n = len(regions)
    if not all(isinstance(r, Box) for r in regions):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    # conservative float bounding boxes: lo rounded down, hi rounded up
    lo = np.array([[_float_bounds(x)[0] for x in r.lo] for r in regions])
    hi = np.array([[_float_bounds(x)[1] for x in r.hi] for r in regions])
    pad = np.nextafter(float(margin), np.inf)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    # every box past this end is certainly more than pad above on axis 0
    reach = _above(hi[:, 0] + pad, np.abs(hi[:, 0]) + pad)
    counts = np.searchsorted(lo[:, 0], reach, "right") - np.arange(1, n + 1)
    total = np.concatenate(([0], np.cumsum(counts)))
    pairs = []
    a = 0
    while a < n:
        b = max(a + 1, int(total.searchsorted(total[a] + _SWEEP_BATCH, "right")) - 1)
        s = np.repeat(np.arange(a, b), counts[a:b])
        t = np.arange(total[a], total[b]) - np.repeat(total[a:b], counts[a:b]) + s + 1
        close = ((lo[t] - hi[s] <= pad) & (lo[s] - hi[t] <= pad)).all(axis=1)
        i, j = order[s[close]], order[t[close]]
        pairs.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1))
        a = b
    out = np.concatenate(pairs)
    return [tuple(p) for p in out[np.lexsort((out[:, 1], out[:, 0]))].tolist()]


# -- Lebesgue numbers ------------------------------------------------------------------


def _containment_radius_lb(
    region: OpenRegion, p: int, tol: Fraction
) -> Fraction | None:
    """Rational lower bound for the analytic containment radius of region at p.

    The containment radius cr satisfies: the open ball B(p, cr) is a subset of
    the region.  Returns None when p is not in the region.  Exact whenever
    distances are rational; otherwise within tol of exact.
    """
    space = region.space
    if not contains(region, p):
        return None
    cap = space.diameter_upper_bound() + 1

    def dist_lb_ub(i: int, j: int) -> tuple[Fraction, Fraction]:
        dsq = space.distance_sq(i, j)
        d = exact_sqrt(dsq)
        if d is not None:
            return d, d
        return sqrt_lower(dsq, tol), sqrt_upper(dsq, tol)

    if isinstance(region, Ball):
        _, dub = dist_lb_ub(region.center, p)
        return min(region.radius - dub, cap)
    if isinstance(region, Box):
        coords = space.points[p]
        slack = cap
        for i in range(space.coord_dim):
            if not region.lo_closed[i]:
                slack = min(slack, coords[i] - region.lo[i])
            if not region.hi_closed[i]:
                slack = min(slack, region.hi[i] - coords[i])
        return slack
    # complement of closed balls: cr = min_i (d(p, c_i) - r_i)
    slack = cap
    for c, r in region.balls:
        dlb, _ = dist_lb_ub(c, p)
        slack = min(slack, dlb - r)
    return slack


# float intervals carry this relative slack per operand magnitude, far above
# the few roundings behind each value; _TINY absorbs underflow
_REL = 2.0**-48
_TINY = 2.0**-1060


def _float_bounds(x: Fraction) -> tuple[float, float]:
    """Floats lo <= x <= hi (infinite when x is out of float range)."""
    try:
        f = float(x)
    except OverflowError:
        return -math.inf, math.inf
    return math.nextafter(f, -math.inf), math.nextafter(f, math.inf)


def _below(v, mag):
    """A float certainly below the real value computed as v, where mag sums
    the magnitudes of the operands behind v."""
    return v - (mag * _REL + _TINY)


def _above(v, mag):
    return v + (mag * _REL + _TINY)


def _diff_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float bounds [..., (lo, hi)] on x - y for x, y within the bounds a, b."""
    lo = a[..., 0] - b[..., 1]
    hi = a[..., 1] - b[..., 0]
    mag = np.abs(a).max(axis=-1) + np.abs(b).max(axis=-1)
    return np.stack([_below(lo, mag), _above(hi, mag)], axis=-1)


def _dist_bounds(space: SampledSpace, c: int, idx: np.ndarray):
    """Float bounds on the distances from point c to the points idx."""
    d = np.sqrt(space._dist_sq_to(c, idx).astype(float) / float(space.dist_scale_sq))
    return _below(d, d), _above(d, d)


def _radius_bounds(region: OpenRegion, idx: np.ndarray, tol: float):
    """Float bounds lo <= _containment_radius_lb(region, p, t) <= hi for the
    member points p = idx at every tolerance t <= tol, before the cap.

    A ball gives r - d - tol <= r - d_upper <= r - d; a box its exact slack;
    a co-ball complement min(d_i - r_i) - tol <= min(d_lower_i - r_i) <=
    min(d_i - r_i).
    """
    space = region.space
    if isinstance(region, Ball):
        dl, dh = _dist_bounds(space, region.center, idx)
        rl, rh = _float_bounds(region.radius)
        return (
            _below(rl - dh - tol, abs(rl) + dh + tol),
            _above(rh - dl, abs(rh) + dl),
        )
    lo = np.full(len(idx), math.inf)
    hi = np.full(len(idx), math.inf)
    if isinstance(region, Box):
        table = space._icoords[idx].astype(float) / float(space.scale)
        for i in range(space.coord_dim):
            x = table[:, i]
            xl, xh = _below(x, np.abs(x)), _above(x, np.abs(x))
            if not region.lo_closed[i]:  # slack x - lo
                bl, bh = _float_bounds(region.lo[i])
                lo = np.minimum(lo, _below(xl - bh, np.abs(xl) + abs(bh)))
                hi = np.minimum(hi, _above(xh - bl, np.abs(xh) + abs(bl)))
            if not region.hi_closed[i]:  # slack hi - x
                bl, bh = _float_bounds(region.hi[i])
                lo = np.minimum(lo, _below(bl - xh, np.abs(xh) + abs(bl)))
                hi = np.minimum(hi, _above(bh - xl, np.abs(xl) + abs(bh)))
        return lo, hi
    for c, r in region.balls:
        dl, dh = _dist_bounds(space, c, idx)
        rl, rh = _float_bounds(r)
        lo = np.minimum(lo, _below(dl - rh - tol, dl + abs(rh) + tol))
        hi = np.minimum(hi, _above(dh - rl, dh + abs(rl)))
    return lo, hi


class _LebesgueTable:
    """Per sample point, the cover regions containing it in index order, each
    with float bounds [lo, hi] on the point's containment radius lower bound
    at the base tolerance and at every finer one, and whether that bound is
    certainly the cap.  Stored by point: the entries of point p sit at
    start[p]:start[p + 1].  (A plain class: a dataclass costs import time.)"""

    def __init__(self, start, region, lo, hi, capped, cap: Fraction):
        self.start, self.region, self.lo, self.hi = start, region, lo, hi
        self.capped, self.cap = capped, cap

    def at(self, p: int):
        """(region index, lo, hi, capped) per region containing p."""
        a, b = int(self.start[p]), int(self.start[p + 1])
        return zip(
            self.region[a:b].tolist(),
            self.lo[a:b].tolist(),
            self.hi[a:b].tolist(),
            self.capped[a:b].tolist(),
        )

    def radius_lb(self, cover: Cover, ridx: int, capped: bool, p: int, tol):
        """_containment_radius_lb of region ridx at its member p."""
        if capped:
            return self.cap
        return _containment_radius_lb(cover.regions[ridx], p, tol)


def _base_tolerance(space: SampledSpace) -> Fraction:
    return space.mesh / 2**20


def _lebesgue_table(cover: Cover) -> _LebesgueTable:
    """The cover's Lebesgue table, built once from the region members.

    Arbitrary-precision tables, and scales too large for floats, get
    unbounded intervals, which send every entry to the exact code.
    """
    if cover._table is not None:
        return cover._table
    space = cover.space
    cap = space.diameter_upper_bound() + 1
    members = [region_members(r) for r in cover.regions]
    points = np.concatenate(members) if members else np.zeros(0, np.int32)
    lo = np.full(points.size, -math.inf)
    hi = np.full(points.size, math.inf)
    capped = np.zeros(points.size, dtype=bool)
    if space._fast and space.dist_scale_sq < 2**1000 and members:
        tol = _float_bounds(_base_tolerance(space))[1]
        bounds = [_radius_bounds(r, m, tol) for r, m in zip(cover.regions, members)]
        cap_lo, cap_hi = _float_bounds(cap)
        lo = np.concatenate([b[0] for b in bounds])
        capped = lo >= cap_hi
        lo = np.minimum(lo, cap_lo)
        hi = np.minimum(np.concatenate([b[1] for b in bounds]), cap_hi)
    region = np.repeat(
        np.arange(len(members), dtype=np.int32), [m.size for m in members]
    )
    order = np.argsort(points, kind="stable")
    start = np.zeros(space.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(points, minlength=space.n), out=start[1:])
    cover._table = _LebesgueTable(
        start, region[order], lo[order], hi[order], capped[order], cap
    )
    return cover._table


def lebesgue_number(cover: Cover) -> Fraction:
    """A certified positive refinement radius for a validated cover.

    lambda = min over sample points p of max over regions containing p of a
    rational lower bound of the analytic containment radius.  Guarantee: for
    every sample point p there is a single cover region that analytically
    contains the open ball B(p, lambda); in particular all sample points
    within lambda of p lie in one region.

    The cover's Lebesgue table bounds every point's value by floats; the
    exact per-point computation runs only on the points whose lower bound
    does not exceed the least upper bound, since no other point can attain
    the minimum.  Within a point, regions whose upper bound lies below
    another region's lower bound cannot attain the maximum.
    """
    if cover._lebesgue is not None:
        return cover._lebesgue
    report = covers_check(cover)
    if not report.ok:
        raise CheckFailure(
            f"cover does not cover its target (first uncovered point "
            f"{report.failure_point})",
            witness=report.failure_point,
        )
    space = cover.space
    table = _lebesgue_table(cover)
    # every point is covered, so every point holds at least one entry
    lo_max = np.maximum.reduceat(table.lo, table.start[:-1])
    hi_max = np.maximum.reduceat(table.hi, table.start[:-1])
    lam: Fraction | None = None
    for p in np.flatnonzero(lo_max <= hi_max.min()).tolist():
        entries = [e for e in table.at(p) if e[2] >= lo_max[p]]
        # the true radius is positive; refine the sqrt tolerance until the
        # bound is too
        for tol in _tolerances(space, p):
            best: Fraction | None = None
            for ridx, _, _, capped in entries:
                cr = table.radius_lb(cover, ridx, capped, p, tol)
                if cr is not None and (best is None or cr > best):
                    best = cr
            if best is not None and best > 0:
                break
        lam = best if lam is None else min(lam, best)
    if lam is None:
        raise AssertionError("no point of a validated cover attains the minimum")
    cover._lebesgue = lam
    return lam


def lebesgue_argmax_region(cover: Cover, p: int, lam: Fraction) -> int:
    """Index of a cover region analytically containing B(p, lam).

    Deterministic: the lowest region index whose containment-radius lower
    bound at p reaches lam.  The Lebesgue table settles every region whose
    float bounds lie on one side of lam; only the others reach the exact
    code.
    """
    space = cover.space
    if not 0 <= p < space.n:
        raise InputError(f"point index {p} out of range")
    lam_lo, lam_hi = _float_bounds(lam)
    table = _lebesgue_table(cover)
    # an upper bound below lam excludes a region at every tolerance
    entries = [e for e in table.at(p) if e[2] >= lam_lo]
    for tol in _tolerances(space, p):
        for ridx, lo, _, capped in entries:
            if lo >= lam_hi:
                return ridx
            cr = table.radius_lb(cover, ridx, capped, p, tol)
            if cr is not None and cr >= lam:
                return ridx


def _tolerances(space: SampledSpace, p: int):
    """The sqrt tolerances tried at p: the base one, then ever finer ones."""
    tol = _base_tolerance(space)
    while True:
        yield tol
        tol = _finer_tolerance(space, p, tol)


def _finer_tolerance(space: SampledSpace, p: int, tol: Fraction) -> Fraction:
    """The next sqrt tolerance, tol / 2**20.

    Below the floor mesh / 2**400 no region certifies a ball at p, which is
    a check failure rather than a reason to refine forever.
    """
    tol /= 2**20
    if tol < space.mesh / 2**400:
        raise CheckFailure(
            f"no region certifies the Lebesgue ball at point {p}", witness=p
        )
    return tol


# -- families -------------------------------------------------------------------------


class DisjointFamily:
    """A pairwise-disjoint family of regions refining a parent cover.

    Construction validates both halves and records the refinement witness:
    per member, a parent region index and the evidence that settled it
    ("analytic" or "sample").  The disjointness margin is the space mesh.
    A subfamily inherits both certificates.
    """

    def __init__(
        self,
        regions: Sequence[OpenRegion],
        parent: Cover,
        witness: Sequence[int] | None = None,
    ):
        self.space = parent.space
        self.regions = tuple(regions)
        self.parent = parent
        dis = pairwise_disjoint_check(self.regions, self.space.mesh)
        if not dis.ok:
            raise CheckFailure(
                f"family is not pairwise disjoint: regions {dis.violating_pair} "
                f"({dis.reason})",
                witness=dis,
            )
        if witness is None:
            ref = refines_check(self.regions, parent)
            if not ref.ok:
                raise CheckFailure(
                    f"family does not refine its parent cover: {ref.counterexample}",
                    witness=ref.counterexample,
                )
            self.witness = tuple(w[0] for w in ref.witness)
            self.witness_kinds = tuple(w[1] for w in ref.witness)
        else:
            self._certify(witness)

    def _certify(self, witness: Sequence[int]) -> None:
        """Check a given refinement witness and record it with its evidence."""
        witness = tuple(witness)
        k = len(self.parent.regions)
        if len(witness) != len(self.regions) or not all(0 <= w < k for w in witness):
            raise InputError(
                f"a refinement witness needs one parent index in 0..{k - 1} per "
                f"member; got {len(witness)} for {len(self.regions)} members"
            )
        found = containers(self.regions, self.parent, [[w] for w in witness])
        for r, w, hit in zip(self.regions, witness, found):
            if hit is None:
                raise CheckFailure(
                    "refinement witness does not hold on the sample", witness=(r, w)
                )
        self.witness = witness
        self.witness_kinds = tuple(hit[1] for hit in found)

    def subfamily(
        self, keep: Sequence[int], witness: Sequence[int] | None = None
    ) -> "DisjointFamily":
        """The members at the indices keep, in that order, with the same
        parent.  Any subset of a pairwise-disjoint family is one; the witnesses
        carry over, unless a new witness is given, which is checked."""
        keep = list(keep)
        if len(set(keep)) != len(keep) or not all(0 <= i < len(self) for i in keep):
            raise AssertionError("subfamily indices repeat or leave the family")
        sub = object.__new__(DisjointFamily)
        sub.space, sub.parent = self.space, self.parent
        sub.regions = tuple(self.regions[i] for i in keep)
        sub.witness = tuple(self.witness[i] for i in keep)
        sub.witness_kinds = tuple(self.witness_kinds[i] for i in keep)
        if witness is not None:
            sub._certify(witness)
        return sub

    def union_mask(self) -> np.ndarray:
        return union_mask(self.space, self.regions)

    def __len__(self) -> int:
        return len(self.regions)


class CoverSeq:
    """A finite 1-indexed sequence of covers over a common space."""

    def __init__(self, space: SampledSpace, covers: Sequence[Cover]):
        for c in covers:
            if c.space is not space:
                raise InputError("all covers must live on the same space")
        self.space = space
        self.covers = tuple(covers)
        self.horizon = len(covers)
        # screenability._block's families by block start
        self._blocks: dict[int, tuple[tuple[DisjointFamily, ...], bool]] = {}

    def cover(self, n: int) -> Cover:
        if not 1 <= n <= self.horizon:
            raise InputError(f"cover index {n} outside 1..{self.horizon}")
        return self.covers[n - 1]

    def validate(self) -> None:
        for n in range(1, self.horizon + 1):
            rep = covers_check(self.cover(n))
            if not rep.ok:
                raise CheckFailure(
                    f"cover {n} fails to cover (point {rep.failure_point})",
                    witness=(n, rep.failure_point),
                )
