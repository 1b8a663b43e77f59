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

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .exact import (
    CheckFailure,
    InputError,
    ceil_frac,
    clamp_int64,
    exact_sqrt,
    floor_frac,
    int_le_bound,
    int_lt_bound,
    sqrt_lower,
    sqrt_upper,
)
from .space import CellIndex, SampledSpace, first_hit

UNCOVERED_REPORT_CAP = 16


class _Region:
    """Value identity shared by the region shapes: equal when the type, the
    space (by identity) and every other field agree."""

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
        return hash((id(self.space), type(self), self._values()))


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


# -- box families -------------------------------------------------------------------

# int64 box ends stay below this magnitude, so that a sum or difference of
# two of them fits
_ROW_CAP = 2**62


def _int_array(values) -> np.ndarray:
    """An exact integer array of the given ints: int64 when every entry
    lies below _ROW_CAP in magnitude, Python ints (object) otherwise."""
    try:
        arr = np.array(values, dtype=np.int64)
        if not arr.size or -_ROW_CAP < arr.min() and arr.max() < _ROW_CAP:
            return arr
    except OverflowError:
        pass
    return np.array(values, dtype=object)


def _scaled(table: np.ndarray, factor: int, shift: int = 0) -> np.ndarray:
    """table * factor + shift, exactly: in int64 when the result fits."""
    if table.dtype != object and table.size:
        top = max(-int(table.min()), int(table.max()))
        if top * factor + abs(shift) < _ROW_CAP:
            return table * factor + shift
    return _int_array(table.astype(object) * factor + shift)


def _csr_positions(indptr: np.ndarray, rows: np.ndarray):
    """(indptr, positions) of the CSR rows at the given row indices, in
    that order: the positions of their entries."""
    starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out, np.repeat(starts - out[:-1], counts) + np.arange(out[-1])


def _csr_take(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR rows at the given row indices, in that order."""
    out, positions = _csr_positions(indptr, rows)
    return out, indices[positions]


def _first_in_rows(flags: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per CSR row, the position of its first entry where flags holds, or
    -1."""
    pos = np.flatnonzero(flags)
    rows = np.searchsorted(indptr, pos, "right") - 1
    first = np.ones(pos.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    out = np.full(len(indptr) - 1, -1, dtype=np.int64)
    out[rows[first]] = pos[first]
    return out


def _clamped(rows) -> np.ndarray:
    """An int64 table of rows of Python ints, each clamped to the int64
    range: against int64 rows below _ROW_CAP a clamped end compares as the
    end does."""
    return np.array([[clamp_int64(x) for x in row] for row in rows], dtype=np.int64)


class BoxFamily:
    """Open axis boxes on one space as integer arrays.

    Box i is {x : lo[i, k] / den < x_k < hi[i, k] / den on every axis k};
    den is a multiple of the space's scale, and the rows are int64 when
    they fit, Python ints (object) otherwise.  Box i holds the sample
    points indices[indptr[i]:indptr[i + 1]] (sorted), and anchors[i] is
    the lowest of them (-1 for a box holding none).  The float bounds of
    the ends are converted once per family, rounded outward; a Box object
    is built only when asked for (box, boxes).  The block builders of
    screenability make these families.
    """

    def __init__(self, space: SampledSpace, den: int, lo, hi, indptr, indices):
        if den % space.scale or lo.shape != hi.shape or len(indptr) != len(lo) + 1:
            raise AssertionError("box family arrays do not fit together")
        self.space, self.den, self.lo, self.hi = space, den, lo, hi
        self.indptr, self.indices = indptr, indices
        self.indices.flags.writeable = False
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._boxes: tuple[Box, ...] | None = None

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def anchors(self) -> np.ndarray:
        held = self.indptr[1:] > self.indptr[:-1]
        anchors = np.full(len(held), -1, dtype=np.int64)
        anchors[held] = self.indices[self.indptr[:-1][held]]
        return anchors

    def members(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def take(self, keep) -> "BoxFamily":
        """The boxes at the indices keep, in that order."""
        keep = np.asarray(keep, dtype=np.int64)
        indptr, indices = _csr_take(self.indptr, self.indices, keep)
        lo, hi = self.lo[keep], self.hi[keep]
        sub = BoxFamily(self.space, self.den, lo, hi, indptr, indices)
        if self._bounds is not None:
            sub._bounds = (self._bounds[0][keep], self._bounds[1][keep])
        return sub

    def float_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Float bounds (k, d, 2) on every lower and every upper end: [..., 0]
        below the end, [..., 1] above it.  Infinite on object rows and on a
        denominator past float range, which sends every pair to the exact
        integer tests."""
        if self._bounds is None:
            if self.lo.dtype == object or self.den >= 2**1000:
                inf = np.empty(self.lo.shape + (2,))
                inf[..., 0], inf[..., 1] = -math.inf, math.inf
                self._bounds = (inf, inf)
            else:
                den = float(self.den)
                self._bounds = tuple(
                    np.stack([_below(v, np.abs(v)), _above(v, np.abs(v))], axis=-1)
                    for v in (self.lo / den, self.hi / den)
                )
        return self._bounds

    def rows(self, den: int) -> np.ndarray:
        """The ends (lo then hi, k x 2d) over a multiple den of the family's
        denominator: equal boxes have equal rows."""
        return _scaled(np.concatenate([self.lo, self.hi], axis=1), den // self.den)

    def box(self, i: int) -> Box:
        lo, hi = self.lo[i].tolist(), self.hi[i].tolist()
        return Box(
            self.space,
            tuple(Fraction(v, self.den) for v in lo),
            tuple(Fraction(v, self.den) for v in hi),
        )

    def boxes(self) -> tuple[Box, ...]:
        if self._boxes is None:
            self._boxes = tuple(self.box(i) for i in range(len(self)))
        return self._boxes


# -- membership -------------------------------------------------------------------


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


def _make_members(regions: list[OpenRegion]) -> None:
    """Give each region its members, for regions on one space.

    The balls of one radius take one SampledSpace.balls call, and each
    keeps its row of the answer; a box takes one SampledSpace.box call
    (a batched query reads every cell a wide box spans, which costs more
    than the box's own window); a complement of closed balls is the
    complement of one SampledSpace.ball_union per radius.
    """
    space = regions[0].space
    if any(r.space is not space for r in regions):
        raise InputError("regions queried together must share one space")
    balls, rows = [], []
    for region in regions:
        if isinstance(region, Ball):
            balls.append((region, region.radius))
        elif isinstance(region, Box):
            rows.append((region, space.box(_box_bounds(region))))
        else:
            inside = np.zeros(space.n, dtype=bool)
            for r, centers in _by_radius(region.balls).items():
                inside |= space.ball_union(centers, space.scaled_bound(r, closed=True))
            rows.append((region, np.flatnonzero(~inside).astype(np.int32)))
    for r, group in _by_radius(balls).items():
        indptr, indices = space.balls([b.center for b in group], space.scaled_bound(r))
        rows += zip(group, np.split(indices, indptr[1:-1]))
    for region, members in rows:
        members.flags.writeable = False
        object.__setattr__(region, "_members", members)


def _members(regions) -> list[np.ndarray]:
    """region_members of each region; the regions that have none yet get
    theirs from one _make_members call."""
    missing = {id(r): r for r in regions if "_members" not in r.__dict__}
    if missing:
        _make_members(list(missing.values()))
    return [r.__dict__["_members"] for r in regions]


def region_members(region: OpenRegion) -> np.ndarray:
    """Sorted, read-only int32 indices of the sample points inside the
    region, computed once (_make_members, which batches the regions of a
    cover) and kept on the region."""
    return _members([region])[0]


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
        # built on first use: _region_arrays, and _box_ends by den
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._ends: dict[int, tuple[np.ndarray, np.ndarray]] = {}


_SHAPES = {Ball: 1, Box: 2, CoClosedBalls: 0}


def _region_arrays(cover: Cover) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cover region: its shape code (_SHAPES), and for a ball its center
    and the float bounds on its radius (0 elsewhere).  Built once per
    cover."""
    if cover._arrays is None:
        balls = [r if isinstance(r, Ball) else None for r in cover.regions]
        cover._arrays = (
            np.array([_SHAPES[type(r)] for r in cover.regions], dtype=np.int8),
            np.array([0 if b is None else b.center for b in balls]),
            np.array([(0, 0) if b is None else _float_bounds(b.radius) for b in balls]),
        )
    return cover._arrays


def _box_ends(cover: Cover, den: int, dtype) -> np.ndarray:
    """Per cover region, its box ends scaled by den, inward to integers:
    ceil(lo * den) per axis, then floor(hi * den) (0 for other shapes), in
    int64 clamped to its range or in Python ints.  Built once per den."""
    ends = cover._ends.get(den)
    if ends is None:
        d = cover.space.coord_dim
        rows = [
            [ceil_frac(x * den) for x in r.lo] + [floor_frac(x * den) for x in r.hi]
            if isinstance(r, Box)
            else [0] * (2 * d)
            for r in cover.regions
        ]
        ends = cover._ends[den] = np.array(rows, dtype=object), _clamped(rows)
    return ends[0] if dtype == object else ends[1]


def _by_radius(pairs) -> dict[Fraction, list]:
    """The items of (item, radius) pairs (ball centers, or Ball regions),
    grouped by radius.  A run of pairs sharing one radius object hashes it
    once, not once per pair."""
    groups: dict[Fraction, list] = {}
    last = group = None
    for item, r in pairs:
        if r is not last:
            group, last = groups.setdefault(r, []), r
        group.append(item)
    return groups


def union_mask(space: SampledSpace, regions) -> np.ndarray:
    """Boolean mask of the sample points lying in some region: the union of
    their members."""
    out = np.zeros(space.n, dtype=bool)
    for members in _members(regions):
        out[members] = True
    return out


def covers_check(cover: Cover) -> CoverageReport:
    """Per-point region assignment, or the first uncovered point.

    The assignment picks the lowest containing region index per point; the
    failure point is the lowest-index uncovered point, with further uncovered
    points reported up to a cap.
    """
    assignment = first_hit(_members(cover.regions), cover.space.n)
    uncovered = np.flatnonzero(assignment < 0)
    if uncovered.size:
        return CoverageReport(
            False,
            None,
            int(uncovered[0]),
            tuple(uncovered[:UNCOVERED_REPORT_CAP].tolist()),
        )
    return CoverageReport(True, tuple(assignment.tolist()), None, ())


# -- containment ---------------------------------------------------------------------


def _floats_settle(space: SampledSpace) -> bool:
    """Whether certified float bounds apply on the space: an int64
    euclidean or chebyshev table whose scale converts to a float."""
    return space.windowed and space.dist_scale_sq < 2**1000


def _corner_verdicts(space, lo, hi, centers, radius) -> np.ndarray:
    """1 where the box with end bounds lo, hi (k, d, 2) certainly lies in
    the open ball at centers[k] with radius bounds radius[k], 0 where it
    certainly does not, -1 where floats cannot tell."""
    c = space._icoords.take(centers, axis=0) / float(space.scale)
    c = np.stack([_below(c, np.abs(c)), _above(c, np.abs(c))], axis=-1)
    up, down = _diff_bounds(hi, c), _diff_bounds(c, lo)  # hi - c, c - lo
    far = np.maximum(np.maximum(up, down), 0) ** 2
    far = far.max(axis=1) if space.metric_kind == "chebyshev" else far.sum(axis=1)
    mag = far * (space.coord_dim + 1)  # the roundings of the squares and sum
    far_lo, far_hi = _below(far[:, 0], mag[:, 0]), _above(far[:, 1], mag[:, 1])
    r = np.maximum(radius, 0) ** 2
    r_lo, r_hi = _below(r[:, 0], r[:, 0]), _above(r[:, 1], r[:, 1])
    return np.where(far_hi < r_lo, 1, np.where(far_lo >= r_hi, 0, -1))


def _family_verdicts(fam: BoxFamily, outer: Cover, ii: np.ndarray, oo: np.ndarray):
    """Per pair q, whether box ii[q] of the family lies inside the cover
    region oo[q]: 1 or 0 where settled, -1 where only _family_contains can
    tell.  A box-in-box pair is settled exactly, on integer rows; a
    box-in-ball pair by certified floats when they can tell."""
    verdict = np.full(len(ii), -1, dtype=np.int8)
    space = fam.space
    if space.metric_kind == "cantor_2adic" or not len(ii):
        return verdict
    shape, center, radius = _region_arrays(outer)
    shape = shape[oo]
    ball, box = shape == _SHAPES[Ball], shape == _SHAPES[Box]
    if ball.any() and _floats_settle(space):
        lo, hi = fam.float_bounds()
        i, c = ii[ball], oo[ball]
        verdict[ball] = _corner_verdicts(space, lo[i], hi[i], center[c], radius[c])
    if box.any():
        # ceil(lo * den) <= row lo and floor(hi * den) >= row hi on every
        # axis; clamped ends still decide against rows below 2**62
        ends, i = _box_ends(outer, fam.den, fam.lo.dtype)[oo[box]], ii[box]
        low, high = np.split(ends, 2, axis=1)
        verdict[box] = (low <= fam.lo[i]).all(axis=1) & (high >= fam.hi[i]).all(axis=1)
    return verdict


def _family_contains(fam: BoxFamily, i: int, outer: OpenRegion) -> bool:
    """Exact sufficient test that box i of the family is a subset of outer
    as analytic sets: a True answer certifies containment in the ambient
    space, a False one is inconclusive.  Decided on the box's integer row:
    every end is scaled by den, the center coordinates too.  A box lies in
    a ball iff its farthest corner does, and in a complement of closed
    balls iff its closure keeps outside every one of them; the 2-adic
    metric has no box test."""
    space = fam.space
    if outer.space is not space or space.metric_kind == "cantor_2adic":
        return False
    den, factor = fam.den, fam.den // space.scale
    lo, hi = fam.lo[i].tolist(), fam.hi[i].tolist()
    if isinstance(outer, Box):
        return all(ceil_frac(a * den) <= x for a, x in zip(outer.lo, lo)) and all(
            floor_frac(b * den) >= x for b, x in zip(outer.hi, hi)
        )
    if isinstance(outer, Ball):
        centers = [(outer.center, outer.radius)]
    else:
        centers = outer.balls
    for c, r in centers:
        c = [x * factor for x in space._icoords[c].tolist()]
        if isinstance(outer, Ball):  # the farthest corner
            gaps = [max(b - x, x - a) for a, b, x in zip(lo, hi, c)]
        else:  # the gap from the center to the closed box
            gaps = [max(a - x, x - b, 0) for a, b, x in zip(lo, hi, c)]
        if space.metric_kind == "chebyshev":
            gsq = max(gaps) ** 2
        else:
            gsq = sum(g * g for g in gaps)
        # the sign of gap**2 - radius**2, both scaled by den**2
        sign = gsq * r.denominator**2 - r.numerator**2 * den**2
        if isinstance(outer, Ball):
            return sign < 0
        if sign <= 0:
            return False
    return True


def containers(
    inner: BoxFamily,
    outer: Cover,
    candidates: Sequence[Sequence[int]]
    | np.ndarray
    | tuple[np.ndarray, np.ndarray]
    | None = None,
    sample: bool = True,
) -> list[tuple[int, str] | None]:
    """Per box of the family, (outer region index, evidence) for the first
    of its candidate outer regions that contains it, or None; the one
    containment decider.  Candidates default to every outer region, in
    order; a 2-D array gives one row of candidates per box, and a tuple
    (indptr, indices) of int arrays gives them as CSR rows.

    Analytic evidence comes first: one batch settles every pair it can
    (box-in-ball pairs by certified floats, box-in-box pairs exactly on the
    family's integer rows), and the exact analytic test runs only on the
    pairs the batch cannot tell, in candidate order, until one holds.
    Sample evidence (every sample point of the box lies in the outer
    region) comes second, unless sample is False.  Analytic evidence
    implies sample evidence.
    """
    regions = outer.regions
    if inner.space is not outer.space:
        raise InputError("refinement operands must share one space")
    k = len(inner)
    if candidates is None:
        candidates = np.broadcast_to(np.arange(len(regions)), (k, len(regions)))
    if isinstance(candidates, tuple):
        indptr, oo = candidates
    elif isinstance(candidates, np.ndarray):
        indptr, oo = np.arange(k + 1) * candidates.shape[1], candidates.reshape(-1)
    else:
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum([len(cs) for cs in candidates], out=indptr[1:])
        oo = np.fromiter(itertools.chain.from_iterable(candidates), np.int64)
    ii = np.repeat(np.arange(k), np.diff(indptr))
    verdict = _family_verdicts(inner, outer, ii, oo)

    def exact(i, c):
        return _family_contains(inner, i, regions[c])

    # a row's first pair the batch did not rule out is a hit, or where the
    # exact test starts
    hit = _first_in_rows(verdict != 0, indptr)
    flat, verdict = oo.tolist(), verdict.tolist()
    for i in [i for i, q in enumerate(hit.tolist()) if q >= 0 and verdict[q] < 0]:
        tried = (q for q in range(hit[i], indptr[i + 1]) if verdict[q])
        hit[i] = next((q for q in tried if verdict[q] > 0 or exact(i, flat[q])), -1)
    out = [None if q < 0 else (flat[q], "analytic") for q in hit.tolist()]
    pending = np.flatnonzero(hit < 0).tolist() if sample else []
    rows = _members(regions) if pending else []
    for i in pending:
        held = inner.members(i)
        c = next((c for c in flat[indptr[i] : indptr[i + 1]] if _all_in(held, rows[c])), None)
        out[i] = None if c is None else (c, "sample")
    return out


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


def _gaps_ge(gaps, metric: str, margin) -> bool:
    """Whether per-axis box gaps (None when the boxes meet) reach margin in
    the metric."""
    if gaps is None:
        return False
    if metric == "chebyshev":
        return max(gaps) >= margin
    return sum(g * g for g in gaps) >= margin * margin


def _family_gap_ge(fam: BoxFamily, i: int, j: int, margin: Fraction) -> bool | None:
    """Exact test that the metric gap between boxes i and j of the family
    is at least margin (0: the open boxes are disjoint), on integer rows;
    None under the 2-adic metric, which has no box gap."""
    if fam.space.metric_kind == "cantor_2adic":
        return None
    (lo1, lo2), (hi1, hi2) = fam.lo[[i, j]].tolist(), fam.hi[[i, j]].tolist()
    gaps = _axis_gaps(lo1, hi1, lo2, hi2)
    return _gaps_ge(gaps, fam.space.metric_kind, margin * fam.den)


@dataclass(frozen=True)
class DisjointReport:
    ok: bool
    violating_pair: tuple[int, int] | None
    reason: str | None  # "shared_point" | "analytic_overlap" | "gap_below_margin"
    witness_point: int | None

    def __bool__(self) -> bool:
        return self.ok


def pairwise_disjoint_check(fam: BoxFamily, margin: Fraction) -> DisjointReport:
    """Pairwise disjointness of a box family: no shared sample point, and an
    analytic gap >= margin wherever the metric has an exact box gap."""
    if margin < 0:
        raise InputError("margin must be nonnegative")
    if len(fam) <= 1:
        return DisjointReport(True, None, None, None)
    # shared sample points: count memberships per point
    members = fam.indices
    multi = np.flatnonzero(np.bincount(members, minlength=fam.space.n) > 1)
    if multi.size:
        p = int(multi[0])
        owners = np.searchsorted(fam.indptr, np.flatnonzero(members == p), "right") - 1
        pair = (int(owners[0]), int(owners[1]))
        return DisjointReport(False, pair, "shared_point", p)

    for i, j in _pair_order(fam, margin):
        if _family_gap_ge(fam, i, j, margin) is False:
            reason = (
                "analytic_overlap"
                if _family_gap_ge(fam, i, j, Fraction(0)) is False
                else "gap_below_margin"
            )
            return DisjointReport(False, (i, j), reason, None)
    return DisjointReport(True, None, None, None)


def _pair_order(fam: BoxFamily, margin: Fraction):
    """The index pairs (i, j), i < j, in lexicographic order, that the exact
    gap test must see.

    A box pair is skipped only when a conservatively-rounded axis gap
    already exceeds margin in float (_float_close), which lower-bounds the
    true metric gap in both supported metrics.  Only pairs of boxes whose
    lower corners lie in the same or neighbouring cells of
    _family_cells see that test: a 3**k-neighbour cell search
    (space.CellIndex) over half the offsets, since the pairs are
    unordered, PAIR_CHUNK candidates at a time.
    """
    if len(fam) < 2:
        return []
    # conservative float bounding boxes: lo rounded down, hi rounded up
    lo, hi = fam.float_bounds()
    lo, hi = lo[..., 0], hi[..., 1]
    pad = np.nextafter(float(margin), np.inf)
    index = CellIndex(_family_cells(fam, lo, hi, pad))
    held = index.held()
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    # each pair of neighbouring cells once: the offsets with a key offset
    # of at least 0, and within one cell each pair once
    for offset in (x for x in index.offsets if x >= 0):
        for i, j in index.pairs(held, index.key + offset):
            if offset:
                i, j = np.minimum(i, j), np.maximum(i, j)
            else:
                i, j = i[i < j], j[i < j]
            close = _float_close(lo, hi, i, j, pad)
            pairs.append(np.stack([i[close], j[close]], axis=1))
    out = np.concatenate(pairs)
    return [tuple(p) for p in out[np.lexsort((out[:, 1], out[:, 0]))].tolist()]


def _float_close(lo: np.ndarray, hi: np.ndarray, i: np.ndarray, j: np.ndarray, pad):
    """Per candidate pair (i[k], j[k]) of float boxes, whether no axis gap
    exceeds pad in float: the pairs the exact gap test must see."""
    close = np.ones(len(i), dtype=bool)
    for a, b in zip(lo.T, hi.T):  # axis by axis: gathers from one column
        close &= (a[j] - b[i] <= pad) & (a[i] - b[j] <= pad)
    return close


def _family_cells(fam: BoxFamily, lo: np.ndarray, hi: np.ndarray, pad) -> np.ndarray:
    """Per box, the cell of its lower corner on the first three axes, such
    that two boxes _float_close keeps (on the float bounds lo, hi) lie in
    the same or neighbouring cells; one cell when the bounds are infinite.

    Close boxes' lower ends differ by at most the widest box plus pad on
    every axis, up to the float bounds' slack: a few ulps of the largest
    magnitude and of pad, and of the underflow threshold.  reach adds
    (top + pad) * 2**-43 and 2**-1000, which cover that slack and the
    roundings of reach itself many times over.  The cell side exceeds
    reach in the family's integer units, and is coarsened until at most
    2**(60 // k) cells lie along each of the k axes, so that the cell keys
    fit int64."""
    rows = fam.lo[:, :3]
    k = rows.shape[1]
    if not np.isfinite(hi).all():  # float_bounds: all infinite or none
        return np.zeros((len(rows), 1), dtype=np.int64)
    top = max(float(np.abs(lo).max()), float(np.abs(hi).max()))
    reach = float((hi - lo).max()) + pad + (top + pad) * 2**-43 + 2**-1000
    extent = max(int(col.max()) - int(col.min()) for col in rows.T)
    side = max(math.floor(Fraction(reach) * fam.den) + 1, (extent >> (60 // k)) + 1)
    if side > min(extent, 2**62):  # a few cells on each axis: take one
        return np.zeros((len(rows), 1), dtype=np.int64)
    return rows // side


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
        coords = [Fraction(v, space.scale) for v in space._icoords[p].tolist()]
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


def _dist_bounds(space: SampledSpace, dsq: np.ndarray):
    """Float bounds on the distances whose scaled squares are dsq."""
    d = np.sqrt(dsq.astype(float) / float(space.dist_scale_sq))
    return _below(d, d), _above(d, d)


def _ball_radius_bounds(cover: Cover, points, region, tol: float, lo, hi) -> None:
    """_radius_bounds of the Lebesgue-table entries (points[k], region[k])
    whose region is a ball, written into lo and hi at those entries: r - d
    - tol <= r - d_upper <= r - d, from one pass over their distances."""
    shape, centers, radius = _region_arrays(cover)
    at = np.flatnonzero(shape[region] == _SHAPES[Ball])
    region = region[at]
    dsq = cover.space._pair_dist_sq(points[at], centers[region])
    dl, dh = _dist_bounds(cover.space, dsq)
    rl, rh = radius[region, 0], radius[region, 1]
    lo[at] = _below(rl - dh - tol, np.abs(rl) + dh + tol)
    hi[at] = _above(rh - dl, np.abs(rh) + dl)


def _radius_bounds(region: Box | CoClosedBalls, idx: np.ndarray, tol: float, lo, hi):
    """Float bounds lo <= _containment_radius_lb(region, p, t) <= hi for the
    member points p = idx at every tolerance t <= tol, before the cap,
    written into lo and hi, which hold inf on entry.

    A box gives its exact slack; a co-ball complement min(d_i - r_i) - tol
    <= min(d_lower_i - r_i) <= min(d_i - r_i).
    """
    space = region.space
    if isinstance(region, Box):
        for i in range(space.coord_dim):
            x = space._icoords[idx, i] / float(space.scale)
            xl, xh = _below(x, np.abs(x)), _above(x, np.abs(x))
            if not region.lo_closed[i]:  # slack x - lo
                bl, bh = _float_bounds(region.lo[i])
                np.minimum(lo, _below(xl - bh, np.abs(xl) + abs(bh)), out=lo)
                np.minimum(hi, _above(xh - bl, np.abs(xh) + abs(bl)), out=hi)
            if not region.hi_closed[i]:  # slack hi - x
                bl, bh = _float_bounds(region.hi[i])
                np.minimum(lo, _below(bl - xh, np.abs(xh) + abs(bl)), out=lo)
                np.minimum(hi, _above(bh - xl, np.abs(xl) + abs(bh)), out=hi)
        return
    for c, r in region.balls:
        dl, dh = _dist_bounds(space, space._dist_sq_to(c, idx))
        rl, rh = _float_bounds(r)
        np.minimum(lo, _below(dl - rh - tol, dl + abs(rh) + tol), out=lo)
        np.minimum(hi, _above(dh - rl, dh + abs(rl)), out=hi)


class _LebesgueTable:
    """Per sample point, the cover regions containing it in index order, each
    with float bounds [lo, hi] on the point's containment radius lower bound
    at the base tolerance and at every finer one, and whether that bound is
    certainly the cap.  Stored by point: the entries of point p sit at
    start[p]:start[p + 1].  (A plain class: a dataclass costs import time.)"""

    def __init__(self, start, region, lo, hi, capped, cap: Fraction):
        self.start, self.region, self.lo, self.hi = start, region, lo, hi
        self.capped, self.cap = capped, cap

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
    members = _members(cover.regions)
    sizes = [m.size for m in members]
    points = np.concatenate(members) if members else np.zeros(0, np.int32)
    region = np.repeat(np.arange(len(members), dtype=np.int32), sizes)
    bounded = bool(members) and space._fast and space.dist_scale_sq < 2**1000
    lo = np.full(points.size, math.inf if bounded else -math.inf)
    hi = np.full(points.size, math.inf)
    capped = np.zeros(points.size, dtype=bool)
    if bounded:
        tol = _float_bounds(_base_tolerance(space))[1]
        _ball_radius_bounds(cover, points, region, tol, lo, hi)
        ends = np.cumsum([0] + sizes).tolist()
        for c in np.flatnonzero(_region_arrays(cover)[0] != _SHAPES[Ball]).tolist():
            at = slice(ends[c], ends[c + 1])
            _radius_bounds(cover.regions[c], members[c], tol, lo[at], hi[at])
        cap_lo, cap_hi = _float_bounds(cap)
        capped = lo >= cap_hi
        np.minimum(lo, cap_lo, out=lo)
        np.minimum(hi, cap_hi, out=hi)
    order = np.argsort(points, kind="stable")
    start = np.zeros(space.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(points, minlength=space.n), out=start[1:])
    cover._table = _LebesgueTable(
        start, region[order], lo[order], hi[order], capped[order], cap
    )
    return cover._table


def _codes(n: int, columns) -> np.ndarray:
    """Codes 0, 1, ... of the distinct rows of n-long integer columns (an
    iterable, read only while some rows still share a code)."""
    code = np.zeros(n, dtype=np.int64)
    for col in columns:
        _, col = np.unique(col, return_inverse=True)
        _, code = np.unique(code * (int(col.max()) + 1) + col, return_inverse=True)
        if code.max() == n - 1:
            break
    return code


def _key_columns(region: Box | CoClosedBalls, idx: np.ndarray):
    """The integers a box's or a closed-ball complement's exact radius reads
    at the points idx: the least slack on the box's open sides, over the lcm
    of the scale and the box's denominators (none when every side is
    closed), or the squared distances to each ball, made as they are read."""
    space = region.space
    if isinstance(region, CoClosedBalls):
        return (space._dist_sq_to(c, idx) for c, _ in region.balls)
    den = math.lcm(space.scale, *(x.denominator for x in region.lo + region.hi))
    f = den // space.scale
    sides = []
    for i in range(space.coord_dim):
        x = space._icoords[idx, i]
        if not region.lo_closed[i]:
            sides.append(_scaled(x, f, -int(region.lo[i] * den)))
        if not region.hi_closed[i]:
            sides.append(-_scaled(x, f, -int(region.hi[i] * den)))
    return [functools.reduce(np.minimum, sides)] if sides else []


def _entry_keys(cover: Cover, table: _LebesgueTable, entries, points):
    """A key per Lebesgue-table entry (the entries, at their points), shared
    only by entries whose exact radii agree at every tolerance, and per key
    the (region, capped, point) of its first entry.

    An exact radius reads its point only through integers: a capped entry
    is the cap; a ball's depends on the ball's radius and the point's
    scaled squared distance to its center, so balls of one radius share
    keys; a box's on the point's least scaled slack on its open sides; a
    closed-ball complement's on the point's squared distances to its balls.
    """
    space = cover.space
    shape, centers, _ = _region_arrays(cover)
    region = table.region[entries]
    kind = np.where(table.capped[entries], -1, shape[region])
    capped = np.flatnonzero(kind == -1)
    groups = [(capped, [np.zeros(capped.size, dtype=np.int64)])]
    balls = np.flatnonzero(kind == _SHAPES[Ball])
    regs, inv = np.unique(region[balls], return_inverse=True)
    radii: dict[Fraction, int] = {}
    rid = [radii.setdefault(cover.regions[r].radius, len(radii)) for r in regs.tolist()]
    dsq = space._pair_dist_sq(points[balls], centers[region[balls]])
    groups.append((balls, [np.array(rid, dtype=np.int64)[inv], dsq]))
    rest = np.flatnonzero((kind >= 0) & (kind != _SHAPES[Ball]))
    rest = rest[np.argsort(region[rest], kind="stable")]
    regs, first = np.unique(region[rest], return_index=True)
    for r, pos in zip(regs.tolist(), np.split(rest, first[1:])):
        groups.append((pos, _key_columns(cover.regions[r], points[pos])))
    key = np.zeros(len(entries), dtype=np.int64)
    top = 0
    for pos, columns in groups:
        if pos.size:
            key[pos] = top + _codes(pos.size, columns)
            top = int(key[pos].max()) + 1
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    reps = zip(region[first].tolist(), kind[first].tolist(), points[first].tolist())
    return key, [(r, k < 0, p) for r, k, p in reps]


def _exact_radii(cover: Cover, table: _LebesgueTable, key, reps, tol):
    """The exact radii at tol of the keys present in key, sorted, and the
    rank of each key's radius among them: one _containment_radius_lb per
    key, at its representative entry."""
    need, key = np.unique(key, return_inverse=True)
    radii = [table.radius_lb(cover, *reps[k], tol) for k in need.tolist()]
    order = sorted(range(len(radii)), key=radii.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return [radii[i] for i in order], rank[key]


def _table_rows(table: _LebesgueTable, points: np.ndarray):
    """(indptr, entries, row): the table entries of the points as CSR rows
    in the points' order, and the row of each entry."""
    indptr, entries = _csr_positions(table.start, points)
    return indptr, entries, np.repeat(np.arange(len(points)), np.diff(indptr))


def lebesgue_number(cover: Cover) -> Fraction:
    """A certified positive refinement radius for a validated cover.

    lambda = min over sample points p of max over regions containing p of a
    rational lower bound of the analytic containment radius, taken at the
    first sqrt tolerance where that max is positive.  Guarantee: for every
    sample point p there is a single cover region that analytically
    contains the open ball B(p, lambda); in particular all sample points
    within lambda of p lie in one region.

    The cover's Lebesgue table bounds every point's value by floats; only
    the points whose lower bound does not exceed the least upper bound can
    attain the minimum, and within a point only the regions whose upper
    bound reaches every other region's lower bound can attain the maximum.
    Their exact bounds are computed once per distinct key (_entry_keys), and
    the maxima and the minimum are taken on the ranks of those values.
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
    hi_min = np.maximum.reduceat(table.hi, table.start[:-1]).min()
    points = np.flatnonzero(lo_max <= hi_min)
    lo_max = lo_max[points]  # the point-long bounds go before the exact work
    indptr, entries, row = _table_rows(table, points)
    ask = np.flatnonzero(table.hi[entries] >= lo_max[row])
    key, reps = _entry_keys(cover, table, entries[ask], points[row[ask]])
    unsettled = np.ones(len(points), dtype=bool)
    lam: Fraction | None = None
    tol = _base_tolerance(space)
    while True:
        radii, rank = _exact_radii(cover, table, key, reps, tol)
        best = np.full(entries.size, -1, dtype=np.int64)
        best[ask] = rank
        best = np.maximum.reduceat(best, indptr[:-1])
        done = unsettled & (best >= bisect_right(radii, 0))
        if done.any():
            low = radii[int(best[done].min())]
            lam = low if lam is None else min(lam, low)
        unsettled &= ~done
        if not unsettled.any():
            break
        # the true radius is positive: refine the sqrt tolerance at the
        # points whose bound is not yet
        tol = _finer_tolerance(space, int(points[unsettled.argmax()]), tol)
        keep = unsettled[row[ask]]
        ask, key = ask[keep], key[keep]
    cover._lebesgue = lam
    return lam


def lebesgue_argmax_regions(
    cover: Cover, points: np.ndarray, lam: Fraction
) -> np.ndarray:
    """Per point p, the index of a cover region analytically containing
    B(p, lam): the lowest region index whose containment-radius lower bound
    at p reaches lam, at the first sqrt tolerance where one does.

    The Lebesgue table settles every entry whose float bounds lie on one
    side of lam, so a point's search ends at its first entry whose lower
    bound is above lam (the only one a point needs when it comes first).
    The undecided entries before it reach the exact code once per distinct
    key (_entry_keys).
    """
    space = cover.space
    table = _lebesgue_table(cover)
    lam_lo, lam_hi = _float_bounds(lam)
    points = np.asarray(points, dtype=np.int64)
    indptr, entries, row = _table_rows(table, points)
    stop = _first_in_rows(table.lo[entries] >= lam_hi, indptr)
    out = np.full(len(points), -1, dtype=np.int64)
    found = stop >= 0
    out[found] = table.region[entries[stop[found]]]
    # an entry whose upper bound is below lam reaches it at no tolerance
    limit = np.where(found, stop, entries.size)[row]
    ask = np.flatnonzero(
        (table.hi[entries] >= lam_lo) & (np.arange(entries.size) < limit)
    )
    key, reps = _entry_keys(cover, table, entries[ask], points[row[ask]])
    tol = _base_tolerance(space)
    while True:
        if ask.size:
            radii, rank = _exact_radii(cover, table, key, reps, tol)
            hit = np.zeros(entries.size, dtype=bool)
            hit[ask[rank >= bisect_left(radii, lam)]] = True
            first = _first_in_rows(hit, indptr)
            found = first >= 0
            out[found] = table.region[entries[first[found]]]
        pending = out < 0
        if not pending.any():
            return out
        tol = _finer_tolerance(space, int(points[pending.argmax()]), tol)
        keep = pending[row[ask]]
        ask, key = ask[keep], key[keep]


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
    """A pairwise-disjoint box family refining a parent cover.

    family is the BoxFamily of the members, and witness names a parent
    region index per member.  Construction validates both halves and
    records, per member, the evidence that settled its witness ("analytic"
    or "sample").  The disjointness margin is the space mesh.  A subfamily
    inherits both certificates.
    """

    def __init__(self, family: BoxFamily, parent: Cover, witness: Sequence[int]):
        self.space = parent.space
        self.family = family
        self.parent = parent
        dis = pairwise_disjoint_check(family, self.space.mesh)
        if not dis.ok:
            raise CheckFailure(
                f"family is not pairwise disjoint: regions {dis.violating_pair} "
                f"({dis.reason})",
                witness=dis,
            )
        self._certify(witness)

    def _certify(self, witness: Sequence[int]) -> None:
        """Check a given refinement witness and record it with its evidence."""
        witness = tuple(witness)
        k = len(self.parent.regions)
        if len(witness) != len(self) or not all(0 <= w < k for w in witness):
            raise InputError(
                f"a refinement witness needs one parent index in 0..{k - 1} per "
                f"member; got {len(witness)} for {len(self)} members"
            )
        column = np.array(witness, dtype=np.int64).reshape(-1, 1)
        found = containers(self.family, self.parent, column)
        for i, (w, hit) in enumerate(zip(witness, found)):
            if hit is None:
                raise CheckFailure(
                    "refinement witness does not hold on the sample",
                    witness=(self.family.box(i), w),
                )
        self.witness = witness
        self.witness_kinds = tuple(hit[1] for hit in found)

    def subfamily(
        self,
        keep: Sequence[int],
        witness: Sequence[int] | None = None,
        evidence: Sequence[str] | None = None,
    ) -> "DisjointFamily":
        """The members at the indices keep, in that order, with the same
        parent.  Any subset of a pairwise-disjoint family is one; the witnesses
        carry over, unless a new witness is given, which is checked.  A new
        witness given with its evidence is one that containers decided for
        these members, and is recorded as it stands."""
        keep = np.asarray(keep, dtype=np.int64).reshape(-1)
        if keep.size and (
            keep.min() < 0 or keep.max() >= len(self) or np.bincount(keep).max() > 1
        ):
            raise AssertionError("subfamily indices repeat or leave the family")
        sub = object.__new__(DisjointFamily)
        sub.space, sub.parent = self.space, self.parent
        sub.family = self.family.take(keep)
        if witness is None:
            keep = keep.tolist()
            sub.witness = tuple(map(self.witness.__getitem__, keep))
            sub.witness_kinds = tuple(map(self.witness_kinds.__getitem__, keep))
        elif evidence is None:
            sub._certify(witness)
        else:
            sub.witness, sub.witness_kinds = tuple(witness), tuple(evidence)
        return sub

    @property
    def regions(self) -> tuple[Box, ...]:
        """The members as Box objects, built on first use."""
        return self.family.boxes()

    def union_mask(self, keep: Sequence[int] | None = None) -> np.ndarray:
        """The sample points in some member (some member at the indices
        keep, when given)."""
        indptr, indices = self.family.indptr, self.family.indices
        if keep is not None:
            keep = np.asarray(keep, dtype=np.int64)
            indptr, indices = _csr_take(indptr, indices, keep)
        mask = np.zeros(self.space.n, dtype=bool)
        mask[indices] = True
        return mask

    def __len__(self) -> int:
        return len(self.family)


def union_of(space: SampledSpace, families) -> np.ndarray:
    """Boolean mask of the sample points in some member of some family."""
    mask = np.zeros(space.n, dtype=bool)
    for fam in families:
        mask[fam.family.indices] = True
    return mask


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
