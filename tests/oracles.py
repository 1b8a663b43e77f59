"""Per-region reference bodies for the differential tests.

The package decides containment and disjointness on box families
(`covers.BoxFamily`) only.  These are the per-region bodies it used before,
kept as oracles: the exact analytic containment and gap tests on region
objects, the per-region disjointness check with its per-box float filter,
the refinement loop that `containers` replaced, and a helper that turns a
list of `Box` objects into a `BoxFamily` through the per-box queries.  The
finite-C candidate scan that built and tested every candidate, with no
refutation prefilter, is kept here too, and so is the space loader that
took every point through a tuple of Fractions on its way to the integer
table, and so is the farthest-point traversal that added one center per
step.  The Lebesgue oracles are the exact bounds of every region at every
point over dense masks, and the per-point loops over the Lebesgue table
that ran before the exact bounds were shared by key.  Then come the game's
and the Haver assembly's loops over members and points: the occurrence
table as a dict of row tuples, TWO's lazy-heap greedy on every prefix, the
per-member diameter check in Fraction arithmetic, and the claim replay one
point at a time.  Last come the two axis-0 searches that the cell index
replaced: the disjointness sweep in the order of the boxes' lower ends,
and the box query that windows the sorted first coordinates; and the
one-ball query that the batched ball members replaced.  At the end stand
the file command's fixed costs as they were: the space loader that
type-checked every coordinate, the one-box query that gathered whole rows
of its window, and the family report written from `Box` objects, and
the space digest that joined each point's quoted texts on its own.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

import covergames.covers as covers_module
from covergames.covers import (
    Ball,
    Box,
    BoxFamily,
    CoClosedBalls,
    Cover,
    CoverSeq,
    DisjointFamily,
    DisjointReport,
    containers,
    region_mask,
    region_members,
)
from covergames.exact import (
    CheckFailure,
    InputError,
    ResourceError,
    clamp_int64,
    format_rational,
    int_le_bound,
    int_lt_bound,
    parse_rational,
)
from covergames.haver import ClaimHorizonError, ClaimTrace
from covergames.jsonio import DIGEST_ROWS, canonical_json, digest, region_to_json
from covergames.screenability import (
    _brick_cells,
    _cantor_level_boxes,
    _grid_params,
    _max_element_extent,
    build_brick_grid,
)
from covergames.space import (
    CANTOR_DEPTH_CAP,
    METRIC_KINDS,
    CantorStructure,
    GridStructure,
    SampledSpace,
    _csr_of_pairs,
    _runs,
    csr,
    diameter,
    int_table,
    point_dim,
)


def box_family(space, boxes) -> BoxFamily:
    """The open boxes as a BoxFamily over the lcm of their denominators,
    with the members of the per-box queries.  The lower and upper ends share
    one integer type, as the block builders' do."""
    den = math.lcm(space.scale, *(x.denominator for b in boxes for x in b.lo + b.hi))
    d = space.coord_dim
    rows = [[int(x * den) for x in b.lo + b.hi] for b in boxes]
    rows = covers_module._int_array(rows).reshape(len(boxes), 2 * d)
    lo, hi = rows[:, :d], rows[:, d:]
    return BoxFamily(space, den, lo, hi, *csr([region_members(b) for b in boxes]))


# -- containment --------------------------------------------------------------------


def box_corners(box: Box):
    d = len(box.lo)
    for mask in range(1 << d):
        yield tuple(box.hi[i] if (mask >> i) & 1 else box.lo[i] for i in range(d))


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


def analytic_contains(inner, outer) -> bool:
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
        for corner in box_corners(inner):
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


def refines_oracle(fine, coarse: Cover):
    """The refinement loop that containers replaced, as (ok, witness,
    counterexample): per fine region, the first coarse region analytically
    containing it, else the first whose dense mask holds all its members;
    the first failure names a member escaping the largest-overlap region."""
    masks = [region_mask(r) for r in coarse.regions]
    witness = []
    for fidx, f in enumerate(fine):
        found = None
        for cidx, c in enumerate(coarse.regions):
            if analytic_contains(f, c):
                found = (cidx, "analytic")
                break
        fm = region_members(f)
        if found is None:
            for cidx, cm in enumerate(masks):
                if bool(cm[fm].all()):
                    found = (cidx, "sample")
                    break
        if found is None:
            overlaps = [int(np.count_nonzero(cm[fm])) for cm in masks]
            escape = fm[~masks[int(np.argmax(overlaps))][fm]] if masks else fm
            return False, None, (fidx, int(escape[0]) if escape.size else None)
        witness.append(found)
    return True, tuple(witness), None


# -- disjointness -------------------------------------------------------------------


def analytic_gap_ge(r1, r2, margin: Fraction) -> bool | None:
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
        gaps = covers_module._axis_gaps(i1[0], i1[1], i2[0], i2[1])
        return covers_module._gaps_ge(gaps, metric, margin)

    # ball vs box: gap = d(center, box) - radius
    ball, box = (r1, r2) if isinstance(r1, Ball) else (r2, r1)
    gap_sq, inside = _point_box_gap_sq(space, ball.center, box)
    need = ball.radius + margin
    if inside:
        return False
    return gap_sq >= need * need


def float_ends(boxes) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), k x d: each box's lower ends rounded down and upper ends
    rounded up to floats (infinite past float range)."""
    bounds = covers_module._float_bounds
    lo = np.array([[bounds(x)[0] for x in b.lo] for b in boxes]).reshape(len(boxes), -1)
    hi = np.array([[bounds(x)[1] for x in b.hi] for b in boxes]).reshape(len(boxes), -1)
    return lo, hi


def _old_pair_order(lo: np.ndarray, hi: np.ndarray, margin: Fraction):
    """The per-box float filter on the float ends lo, hi (k x d): the index
    pairs (i, j), i < j, in lexicographic order, whose ends come within the
    margin on every axis, each box against every later box."""
    n = len(lo)
    pad = np.nextafter(float(margin), np.inf)
    pairs = []
    for i in range(n):
        close = np.ones(n - i - 1, dtype=bool)
        for ax in range(lo.shape[1]):
            gap_above = lo[i + 1 :, ax] - hi[i, ax]
            gap_below = lo[i, ax] - hi[i + 1 :, ax]
            close &= (gap_above <= pad) & (gap_below <= pad)
        for off in np.flatnonzero(close):
            pairs.append((i, i + 1 + int(off)))
    return pairs


def pairwise_disjoint_check(regions, margin: Fraction, all_pairs_up_to=64):
    """Pairwise disjointness of a sequence of regions: no shared sample
    point, and analytic gap >= margin wherever the shape pair supports an
    exact gap.  Every pair sees the exact gap, except in box families of
    more than all_pairs_up_to boxes, which the per-box float filter
    prunes."""
    n = len(regions)
    if n <= 1:
        return DisjointReport(True, None, None, None)
    space = regions[0].space
    indptr, members = csr([region_members(r) for r in regions])
    multi = np.flatnonzero(np.bincount(members, minlength=space.n) > 1)
    if multi.size:
        p = int(multi[0])
        owners = np.searchsorted(indptr, np.flatnonzero(members == p), "right") - 1
        return DisjointReport(False, (int(owners[0]), int(owners[1])), "shared_point", p)
    if n > all_pairs_up_to and all(isinstance(r, Box) for r in regions):
        pairs = _old_pair_order(*float_ends(regions), margin)
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        if analytic_gap_ge(regions[i], regions[j], margin) is False:
            overlap = analytic_gap_ge(regions[i], regions[j], Fraction(0)) is False
            reason = "analytic_overlap" if overlap else "gap_below_margin"
            return DisjointReport(False, (i, j), reason, None)
    return DisjointReport(True, None, None, None)


def containers_oracle(boxes, cover: Cover, candidates=None, sample=True):
    """containers' answers by the refinement loop: per box, the first of
    its candidates (every cover region by default) with analytic evidence,
    else, when sample holds, the first with sample evidence."""
    out = []
    for i, box in enumerate(boxes):
        cs = list(range(len(cover.regions)) if candidates is None else candidates[i])
        some = Cover(cover.space, [cover.regions[c] for c in cs])
        ok, w, _ = refines_oracle([box], some)
        hit = (cs[w[0][0]], w[0][1]) if ok else None
        out.append(hit if sample or hit is None or hit[1] == "analytic" else None)
    return out


# -- the finite-C candidate scan ----------------------------------------------------


def admissible_cell_sides(space: SampledSpace, below: Fraction) -> list[Fraction]:
    """Whole-h cell sides strictly below the given bound, largest first."""
    _, h = _grid_params(space)
    sides = []
    while h * (len(sides) + 1) < below:
        sides.append(h * (len(sides) + 1))
    return sides[::-1]


def classes_miss_a_point(space: SampledSpace, m: int, order, n: int) -> bool:
    """Whether the unfiltered classes order[0], ..., order[n-1] (cycling) of
    the brick grid at cell side m*h leave a sample point out, from the
    point-cell table: a grid point is in class c unless (cell - c) mod
    (d+1) == d on some axis."""
    d, _ = _grid_params(space)
    period = d + 1
    r = _brick_cells(space, m) % period
    held = np.stack([(r != (c - 1) % period).all(axis=1) for c in range(period)])
    return not held[order][:n].any(axis=0).all()


def _candidate_class_lists(space: SampledSpace, horizon_extent: Fraction):
    """All brick candidates at the working resolution: (label, class list)."""
    if isinstance(space.structure, GridStructure):
        d, _ = _grid_params(space)
        for s in reversed(admissible_cell_sides(space, horizon_extent)):
            grid = build_brick_grid(space, s)
            for rot in range(d + 1):
                classes = tuple(grid[(c + rot) % (d + 1)] for c in range(d + 1))
                yield f"side={s},rot={rot}", classes
    elif isinstance(space.structure, CantorStructure):
        depth = space.structure.depth
        for L in range(depth + 1):
            yield f"level={L}", (_cantor_level_boxes(space, L, Fraction(1, 4 * 3**L)),)


def _scan_candidates(
    space: SampledSpace, prefix: CoverSeq, refutations: list[tuple[str, int]]
) -> tuple[tuple[DisjointFamily, ...] | None, int]:
    """Try every brick candidate against the prefix covers; return witnessed
    families on the first success, recording a refutation point otherwise."""
    n = prefix.horizon
    tried = 0
    extent = _max_element_extent(prefix)
    for label, classes in _candidate_class_lists(space, extent):
        tried += 1
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


# -- space loading ------------------------------------------------------------------


def cantor_points(depth: int) -> list[tuple[Fraction]]:
    """Left endpoints of the depth-level middle-thirds construction, sorted."""
    pts = [Fraction(0)]
    for level in range(1, depth + 1):
        step = Fraction(2, 3**level)
        pts = [p for q in pts for p in (q, q + step)]
    return [(p,) for p in sorted(pts)]


def space_from_json_oracle(doc: dict) -> dict:
    """A space document loaded point by point: each point a tuple of
    Fractions, its table row the tuple of scaled ints, uniqueness a set of
    rows and the structure found on Python columns.  Returns the fields the
    loader must reproduce (scale, icoords, structure, axis_min, axis_max,
    points, digest), or raises its InputError."""
    parsed = {}

    def coord(text):
        if not isinstance(text, str):
            return parse_rational(text)
        if text not in parsed:
            parsed[text] = parse_rational(text)
        return parsed[text]

    try:
        points = [tuple(coord(c) for c in p) for p in doc["points"]]
        metric, mesh, label = doc["metric"], parse_rational(doc["mesh"]), doc.get("label", "")
    except KeyError as exc:
        raise InputError(f"space JSON missing key {exc}") from exc
    if metric not in METRIC_KINDS:
        raise InputError(f"unknown metric kind {metric!r}")
    if not points:
        raise InputError("a space needs at least one point")
    dims = {len(p) for p in points}
    if len(dims) != 1 or dims == {0}:
        raise InputError("all points must share one positive coordinate dimension")
    scale = math.lcm(*{c.denominator for p in points for c in p})
    rows = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]
    if len(set(rows)) != len(rows):
        raise InputError("point identifiers (coordinates) must be unique")
    if mesh <= 0:
        raise InputError("mesh must be positive")
    cols = list(zip(*rows))
    lo, hi = [min(col) for col in cols], [max(col) for col in cols]
    span = max(b - a for a, b in zip(lo, hi))
    fast = span * span * len(cols) < 2**62 and -(2**63) <= min(lo) and max(hi) < 2**63
    if metric == "cantor_2adic":
        _check_cantor_endpoints(points)
    doc_out = {
        "label": label,
        "metric": metric,
        "mesh": format_rational(mesh),
        "points": [[format_rational(c) for c in p] for p in points],
    }
    return {
        "scale": scale,
        "icoords": np.array(rows, dtype=np.int64 if fast else object),
        "structure": _column_structure(cols, scale),
        "axis_min": tuple(Fraction(v, scale) for v in lo),
        "axis_max": tuple(Fraction(v, scale) for v in hi),
        "points": tuple(points),
        "digest": digest(doc_out),
    }


def _check_cantor_endpoints(points) -> None:
    """The 2-adic metric's checks: one axis, finite middle-thirds digits,
    at most CANTOR_DEPTH_CAP of them."""
    if len(points[0]) != 1:
        raise InputError("cantor_2adic metric needs 1-dim coordinates")
    depth = 0
    for (c,) in points:
        digits = _ternary_digits(c)
        if digits is None:
            raise InputError(f"cantor_2adic coordinate {c} is not a middle-thirds endpoint")
        depth = max(depth, len(digits))
    if depth > CANTOR_DEPTH_CAP:
        raise ResourceError(f"cantor_2adic sample has depth {depth}, cap {CANTOR_DEPTH_CAP}")


def _ternary_digits(c: Fraction) -> list[int] | None:
    """Finite base-3 digits of c in [0,1) with digits in {0,2}, or None."""
    if c < 0 or c >= 1:
        return None
    digits = []
    for _ in range(64):
        if c == 0:
            return digits
        c *= 3
        d = c.numerator // c.denominator
        if d not in (0, 2):
            return None
        digits.append(d)
        c -= d
    return None


def _column_structure(cols, scale: int):
    """Grid or Cantor structure of distinct points: cols[k] holds every
    point's k-th coordinate times `scale`."""
    n, dim = len(cols[0]), len(cols)
    if dim == 1 and n > 1 and n & (n - 1) == 0:
        depth = n.bit_length() - 1
        if scale == 3**depth and all(_cantor_int(k, scale) for k in cols[0]):
            return CantorStructure(depth)
    axis = sorted(set(cols[0]))
    if len(axis) >= 2 and axis[0] == 0 and axis[-1] == scale:
        step = axis[1]
        values = {k * step for k in range(len(axis))}
        if (
            axis == sorted(values)
            and n == len(axis) ** dim
            and all(values.issuperset(col) for col in cols[1:])
        ):
            return GridStructure(dim, Fraction(step, scale))
    return None


def _cantor_int(k: int, bound: int) -> bool:
    """Whether 0 <= k < bound and k has only base-3 digits 0 and 2."""
    if not 0 <= k < bound:
        return False
    while k:
        k, digit = divmod(k, 3)
        if digit == 1:
            return False
    return True


class TraversalLoop:
    """Farthest-point order (Gonzalez 1985) of the subset idx, one center
    per step: each step takes the point with the largest distance to the
    centers so far (ties to the lowest index), then lowers the distances of
    the points within the frontier of it.  run() builds the whole order:
    centers, and radii[k - 1], the scaled squared distance from centers[k]
    to the earlier centers when it was added."""

    def __init__(self, space: SampledSpace, idx: np.ndarray):
        first = int(idx[0])
        self.centers = [first]
        self.radii: list[int] = []
        self.best = np.full(space.n, -1, dtype=np.int64 if space._fast else object)
        self.best[idx] = space._dist_sq_to(first, idx)
        self._next()

    def _next(self) -> None:
        self.worst = int(np.argmax(self.best))  # lowest index on ties
        self.frontier = int(self.best[self.worst])

    def _add(self, space: SampledSpace) -> None:
        c, m = self.worst, self.frontier
        self.centers.append(c)
        self.radii.append(m)
        # no point is farther than m from the earlier centers, so only a
        # point within m - 1 of c can come closer
        near = space.near(c, m - 1)
        self.best[near] = np.minimum(self.best[near], space._dist_sq_to(c, near))
        self._next()

    def run(self, space: SampledSpace) -> TraversalLoop:
        while self.frontier:
            self._add(space)
        return self


# -- Lebesgue numbers ---------------------------------------------------------------


def _ball_oracle(space, center, radius, closed=False):
    x = radius * radius * space.dist_scale_sq
    bound = int_le_bound(x) if closed else int_lt_bound(x)
    if space._fast:
        bound = clamp_int64(bound)
    return np.asarray(space.dist_sq_row(center) <= bound, dtype=bool)


def mask_oracle(region) -> np.ndarray:
    """The dense membership mask, computed over every sample point."""
    space = region.space
    if isinstance(region, Ball):
        return _ball_oracle(space, region.center, region.radius)
    mask = np.ones(space.n, dtype=bool)
    if isinstance(region, Box):
        for i in range(space.coord_dim):
            lo_s = region.lo[i] * space.scale
            hi_s = region.hi[i] * space.scale
            col = space._icoords[:, i]
            if region.lo_closed[i]:
                b = -int_le_bound(-lo_s) - 1
            else:
                b = int_le_bound(lo_s)
            mask &= np.asarray(col > (clamp_int64(b) if space._fast else b), bool)
            if region.hi_closed[i]:
                b = int_le_bound(hi_s)
            else:
                b = int_lt_bound(hi_s)
            mask &= np.asarray(col <= (clamp_int64(b) if space._fast else b), bool)
        return mask
    for c, r in region.balls:
        mask &= ~_ball_oracle(space, c, r, closed=True)
    return mask


def lebesgue_oracle(cover: Cover) -> Fraction:
    """min over every sample point of the max containment radius bound."""
    space = cover.space
    masks = [mask_oracle(r) for r in cover.regions]
    tol = space.mesh / 2**20
    lam = None
    for p in range(space.n):
        local_tol = tol
        while True:
            best = None
            for ridx, region in enumerate(cover.regions):
                if not masks[ridx][p]:
                    continue
                cr = covers_module._containment_radius_lb(region, p, local_tol)
                if cr is not None and (best is None or cr > best):
                    best = cr
            if best is not None and best > 0:
                break
            local_tol = covers_module._finer_tolerance(space, p, local_tol)
        lam = best if lam is None else min(lam, best)
    return lam


def argmax_oracle(cover: Cover, p: int, lam: Fraction, masks, bounds) -> int:
    """The lowest region index whose containment radius bound at p reaches
    lam, checking every region.  masks are the regions' dense masks
    (mask_oracle) and bounds their bounds at p at the tolerance
    mesh / 2**20; finer tolerances are tried while no bound reaches lam."""
    space = cover.space
    tol = space.mesh / 2**20
    while True:
        for ridx, cr in enumerate(bounds):
            if masks[ridx][p] and cr is not None and cr >= lam:
                return ridx
        tol = covers_module._finer_tolerance(space, p, tol)
        bounds = [
            covers_module._containment_radius_lb(region, p, tol) if mask[p] else None
            for region, mask in zip(cover.regions, masks)
        ]


def _table_row(table, p: int):
    """(region index, lo, hi, capped) per region containing p."""
    a, b = int(table.start[p]), int(table.start[p + 1])
    return zip(
        table.region[a:b].tolist(),
        table.lo[a:b].tolist(),
        table.hi[a:b].tolist(),
        table.capped[a:b].tolist(),
    )


def _tolerances(space: SampledSpace, p: int):
    """The sqrt tolerances tried at p: the base one, then ever finer ones."""
    tol = covers_module._base_tolerance(space)
    while True:
        yield tol
        tol = covers_module._finer_tolerance(space, p, tol)


def lebesgue_loop(cover: Cover) -> Fraction:
    """lebesgue_number by the per-point loop over the Lebesgue table: the
    exact bound of every entry at every point the floats leave open."""
    space = cover.space
    table = covers_module._lebesgue_table(cover)
    lo_max = np.maximum.reduceat(table.lo, table.start[:-1])
    hi_max = np.maximum.reduceat(table.hi, table.start[:-1])
    lam = None
    for p in np.flatnonzero(lo_max <= hi_max.min()).tolist():
        entries = [e for e in _table_row(table, p) if e[2] >= lo_max[p]]
        for tol in _tolerances(space, p):
            best = None
            for ridx, _, _, capped in entries:
                cr = table.radius_lb(cover, ridx, capped, p, tol)
                if cr is not None and (best is None or cr > best):
                    best = cr
            if best is not None and best > 0:
                break
        lam = best if lam is None else min(lam, best)
    return lam


def argmax_loop(cover: Cover, p: int, lam: Fraction) -> int:
    """lebesgue_argmax_regions at one point by the per-point loop over the
    Lebesgue table: the first entry whose float lower bound or exact bound
    reaches lam, at the first tolerance where one does."""
    lam_lo, lam_hi = covers_module._float_bounds(lam)
    table = covers_module._lebesgue_table(cover)
    entries = [e for e in _table_row(table, p) if e[2] >= lam_lo]
    for tol in _tolerances(cover.space, p):
        for ridx, lo, _, capped in entries:
            if lo >= lam_hi:
                return ridx
            cr = table.radius_lb(cover, ridx, capped, p, tol)
            if cr is not None and cr >= lam:
                return ridx


# -- the game and the Haver assembly, per member and per point ---------------------


def earliest_occurrence(one_move: dict[int, DisjointFamily]):
    """Per stage, per member of its family, the earliest (stage, member
    index) in the move holding an equal region value: a box's value is its
    integer row over the lcm of the families' denominators."""
    den = lcm(*(fam.family.den for fam in one_move.values()))
    first: dict[tuple, tuple[int, int]] = {}
    out = {}
    for n in sorted(one_move):
        rows = one_move[n].family.rows(den).tolist()
        out[n] = [first.setdefault(tuple(r), (n, i)) for i, r in enumerate(rows)]
    return out


def block_index_loop(two_refs, one_move, start_index: int) -> int:
    """block_index by the dict occurrence, each ref range-checked alone."""
    if not two_refs:
        return start_index
    occurrence = earliest_occurrence(one_move)
    worst = start_index
    for n, ridx in two_refs:
        if n not in one_move or not 0 <= ridx < len(one_move[n]):
            raise InputError("TWO selected a region outside ONE's move")
        worst = max(worst, occurrence[n][ridx][0])
    return worst + 1


def heap_covering_policy(one_move: dict[int, DisjointFamily]):
    """covering_two_policy with its lazy heap on every prefix: a heap of
    each region's gain as of its last push, kept exact through a
    point-to-region index; a stale top is pushed again at its exact gain."""
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
    refs = [(n, ridx) for n in prefix for ridx in range(len(one_move[n]))]
    boxes = [one_move[n].family for n in prefix]
    sizes = np.concatenate([np.diff(b.indptr) for b in boxes])
    points = np.concatenate([b.indices for b in boxes])
    region = np.repeat(np.arange(len(refs)), sizes)
    held = np.zeros(space.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(points, minlength=space.n), out=held[1:])
    holders = region[np.argsort(points, kind="stable")].tolist()
    at, held = np.r_[0, np.cumsum(sizes)].tolist(), held.tolist()
    points = points.tolist()
    gain = sizes.tolist()
    heap = [(-g, i) for i, g in enumerate(gain) if g]
    heapq.heapify(heap)
    uncovered = [True] * space.n
    left = space.n
    picks: list[tuple[int, int]] = []
    while left:
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


def diameter_bound_loop(fam: DisjointFamily, n: int, eps_n: Fraction) -> Fraction:
    """The Haver stage's diameter bound member by member: space.diameter of
    each member (0 with no query for one point), its squared value checked
    below eps_n ** 2 in Fraction arithmetic, and the largest value."""
    boxes = fam.family
    point = diameter(fam.space, [0])
    worst = Fraction(0)
    for i, k in enumerate(np.diff(boxes.indptr).tolist()):
        d = point if k == 1 else diameter(fam.space, boxes.members(i))
        if not d.value_sq < eps_n * eps_n:
            raise AssertionError(f"a filtered region at stage {n} has diameter >= eps_{n}")
        worst = max(worst, d.value)
    return worst


def replay_claim(p: int, entry: int, usable, blocks, owners, horizon: int) -> ClaimTrace:
    """The claim for point p alone: the first covering stage j of the first
    usable block at or past its entry stage; owners[j - 1][p] is the
    filtered region covering p at stage j, -2 when only a dropped region
    covers it, or -1."""
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


# -- axis-0 searches ------------------------------------------------------------------

SWEEP_BATCH = 2**15  # candidate pairs per batch of the sweep (bounds memory)


def sweep_pair_order(fam: BoxFamily, margin: Fraction, batch: int = SWEEP_BATCH):
    """covers._pair_order by the sweep on axis 0: the boxes in the order of
    their lower ends, each box's candidates the later boxes whose lower end
    lies below its upper end plus the margin (a binary search), and only
    they see the float test on every axis."""
    n = len(fam)
    lo, hi = fam.float_bounds()
    lo, hi = lo[..., 0], hi[..., 1]
    pad = np.nextafter(float(margin), np.inf)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    # every box past this end is certainly more than pad above on axis 0
    reach = covers_module._above(hi[:, 0] + pad, np.abs(hi[:, 0]) + pad)
    counts = np.searchsorted(lo[:, 0], reach, "right") - np.arange(1, n + 1)
    total = np.concatenate(([0], np.cumsum(counts)))
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    a = 0
    while a < n:
        b = max(a + 1, int(total.searchsorted(total[a] + batch, "right")) - 1)
        s = np.repeat(np.arange(a, b), counts[a:b])
        t = np.arange(total[a], total[b]) - np.repeat(total[a:b], counts[a:b]) + s + 1
        close = ((lo[t] - hi[s] <= pad) & (lo[s] - hi[t] <= pad)).all(axis=1)
        i, j = order[s[close]], order[t[close]]
        pairs.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1))
        a = b
    out = np.concatenate(pairs)
    return [tuple(p) for p in out[np.lexsort((out[:, 1], out[:, 0]))].tolist()]


def sweep_candidates(fam: BoxFamily, margin: Fraction) -> int:
    """The candidate pairs the sweep sends to the float test."""
    lo, hi = fam.float_bounds()
    order = np.argsort(lo[:, 0, 0], kind="stable")
    lo, hi = lo[order, 0, 0], hi[order, 0, 1]
    pad = np.nextafter(float(margin), np.inf)
    reach = covers_module._above(hi + pad, np.abs(hi) + pad)
    return int((np.searchsorted(lo, reach, "right") - np.arange(1, len(lo) + 1)).sum())


def window_boxes(space: SampledSpace, gt: np.ndarray, le: np.ndarray):
    """SampledSpace.boxes on an int64 euclidean or chebyshev table by
    first-axis windows: each box's window of the sorted first coordinates
    by binary search, the other axes tested on the window's points."""
    order, col, _, _ = space._sorted_by(space._icoords[:, 0])
    first = col.searchsorted(gt[:, 0], "right")
    count = np.maximum(col.searchsorted(le[:, 0], "right") - first, 0)
    codes = []
    for r, pos in _runs(first, count):
        p = order[pos]
        if space.coord_dim > 1:
            t = space._icoords[p, 1:]
            inside = ((t > gt[r, 1:]) & (t <= le[r, 1:])).all(axis=1)
            r, p = r[inside], p[inside]
        codes.append(r * space.n + p)
    return _csr_of_pairs(len(gt), space.n, codes)


def window_ball(space: SampledSpace, c: int, bound: int) -> np.ndarray:
    """The members of one ball, the query SampledSpace.balls batches:
    sorted indices (int32) of the points within scaled squared distance
    bound of point c, the points of SampledSpace.near whose distance is in
    bound, where a 2-adic range or a window in dimension one needs no
    test."""
    idx = space.near(c, bound)
    if space.metric_kind != "cantor_2adic" and (space.coord_dim > 1 or not space.windowed):
        idx = idx[space._dist_sq_to(c, idx) <= bound]
    return np.sort(idx)


# -- the file command's fixed costs ----------------------------------------------------


def scan_space_from_json(doc: dict) -> SampledSpace:
    """jsonio.space_from_json with the type of every coordinate checked:
    the same space, or the same InputError or TypeError."""
    try:
        points = doc["points"]
        if type(points) is not list or not set(map(type, points)) <= {list}:
            raise TypeError("space points must be an array of coordinate arrays")
        if not set(map(type, chain.from_iterable(points))) <= {str, int}:
            # a bool, float, null, array or object coordinate: the first
            # one is refused, after any malformed text before it
            for c in chain.from_iterable(points):
                parse_rational(c)
        scaled = dict.fromkeys(chain.from_iterable(points))
        values = [parse_rational(c) for c in scaled]
        scale = lcm(*(v.denominator for v in values))
        for c, v in zip(scaled, values):
            scaled[c] = v.numerator * (scale // v.denominator)
        metric, mesh = doc["metric"], parse_rational(doc["mesh"])
        label = doc.get("label", "")
    except KeyError as exc:
        raise InputError(f"space JSON missing key {exc}") from exc
    dim = point_dim(metric, map(len, points))
    dtype = int_table(list(scaled.values())).dtype
    flat = map(scaled.__getitem__, chain.from_iterable(points))
    table = np.fromiter(flat, dtype, count=len(points) * dim).reshape(len(points), dim)
    return SampledSpace.from_table(scale, table, metric, mesh, label=label)


def row_box(space: SampledSpace, bounds) -> np.ndarray:
    """SampledSpace.box by a gather of whole rows: the first-axis window's
    rows (every row off a windowed table) tested on every axis, sorted."""
    if space.windowed:
        idx = space.axis0_window(*bounds[0])
    else:
        idx = np.arange(space.n, dtype=np.int32)
    table = space._icoords[idx]
    keep = np.ones(len(idx), dtype=bool)
    for k, (gt, le) in enumerate(bounds):
        keep &= np.asarray((table[:, k] > gt) & (table[:, k] <= le), dtype=bool)
    return np.sort(idx[keep])


def families_json_loop(families) -> list:
    """The families of a report, each box built as a `Box` and written by
    region_to_json."""
    return [[region_to_json(r) for r in fam.regions] for fam in families]


def space_digest_oracle(space: SampledSpace, rows: int = DIGEST_ROWS) -> str:
    """jsonio.space_digest as the quoted-join writer made it: the distinct
    values sorted, each written through a Fraction and json.dumps, and one
    join per point, rows points at a time."""
    head = canonical_json(
        {"label": space.label, "metric": space.metric_kind, "mesh": format_rational(space.mesh)}
    )
    sha = hashlib.sha256(f'{head[:-1]},"points":['.encode())
    values, inverse = np.unique(space._icoords.ravel(), return_inverse=True)
    texts = [json.dumps(format_rational(Fraction(k, space.scale))) for k in values.tolist()]
    texts = np.array(texts, dtype=object)[inverse.reshape(space._icoords.shape)]
    for k in range(0, space.n, rows):
        points = zip(*texts[k : k + rows].T.tolist())
        sha.update(f'{"," if k else ""}[{"],[".join(map(",".join, points))}]'.encode())
    sha.update(b"]}")
    return sha.hexdigest()[:16]
