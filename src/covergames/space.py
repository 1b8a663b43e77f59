"""Desk-scale metric spaces: finite samples with exact metrics.

A compact metric space is represented by a finite dense sample of it.  All
coordinates are exact rationals and all distance comparisons are decided
exactly: squared distances are integers once scaled by the square of the
coordinate lcm denominator, so "d(p,q) < r" becomes an integer comparison.

Three metric kinds are supported:

* ``euclidean``   -- squared distances are rational; distances themselves are
  rational only in dimension one.
* ``chebyshev``   -- max-coordinate metric, always rational.
* ``cantor_2adic``-- ultrametric on middle-thirds endpoints: (1/2)**L where L
  is the first ternary level at which the two addresses differ.

"Covers the space" always means "covers the sample"; infinite sequences are
truncated at an explicit horizon by the callers.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

import numpy as np

from .exact import (
    InputError,
    ResourceError,
    clamp_int64,
    exact_sqrt,
    int_le_bound,
    int_lt_bound,
    parse_rational,
    sqrt_upper,
)

METRIC_KINDS = ("euclidean", "chebyshev", "cantor_2adic")

DEFAULT_POINT_CAP = 2**20
# deepest 2-adic Cantor sample: its distance table has 2**depth entries
CANTOR_DEPTH_CAP = 16
POINT_CAP_ENV = "COVER_GAMES_POINT_CAP"

# candidate pairs that a cell search (CellIndex) yields at once: small
# batches keep a farthest-point level's peak memory near that of a
# one-center update
PAIR_CHUNK = 2**13

# a cell index keeps a dense per-cell CSR while its keys number at most
# this many per row (plus a few); a sparser grid binary-searches its keys
DENSE_CELLS = 2

# cell indexes a space keeps, by cell side, the least recently used going
# first: one farthest-point traversal asks for a side per level
CELL_ENTRIES = 3

# rational upper bounds for sqrt(d), d = 1..3, used for grid mesh values
_EUCLID_MESH_FACTOR = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(7, 4)}


def default_point_cap() -> int:
    raw = os.environ.get(POINT_CAP_ENV)
    if raw is None:
        return DEFAULT_POINT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{POINT_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise InputError(f"{POINT_CAP_ENV} must be positive")
    return cap


def _integer_table(points) -> tuple[int, list[list[int]]]:
    """(scale, rows): the lcm of all coordinate denominators, and every
    point's coordinates times it as a list of ints."""
    pts = [[c if type(c) is Fraction else Fraction(c) for c in p] for p in points]
    dens = {c.denominator for p in pts for c in p}
    scale = lcm(*dens)
    factor = {den: scale // den for den in dens}
    return scale, [[c.numerator * factor[c.denominator] for c in p] for p in pts]


def int_table(values) -> np.ndarray:
    """The integers (nested lists of one shape) as an int64 array, or as
    an object array of python ints when one of them exceeds int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _check_metric(metric_kind: str) -> None:
    if metric_kind not in METRIC_KINDS:
        raise InputError(f"unknown metric kind {metric_kind!r}")


def point_dim(metric_kind: str, lengths) -> int:
    """The coordinate dimension shared by sample points of the given
    lengths.  Faults are reported in this order: an unknown metric kind,
    no points, then mixed or zero dimensions."""
    _check_metric(metric_kind)
    dims = set(lengths)
    if not dims:
        raise InputError("a space needs at least one point")
    if len(dims) != 1 or dims == {0}:
        raise InputError("all points must share one positive coordinate dimension")
    return dims.pop()


@dataclass(frozen=True)
class GridStructure:
    dim: int
    h: Fraction


@dataclass(frozen=True)
class CantorStructure:
    depth: int


class SampledSpace:
    """A finite point sample with an exact metric.

    Instances are immutable after construction and safe to share between
    threads; every derived quantity (integer coordinate table, nearest gap,
    farthest-point traversals) is precomputed or cached once.  Every metric
    query on the coordinate table (balls, box, first-axis window, diameter)
    is answered here.  Distance rows are computed on each call, and region
    members are kept on the regions (covers.region_members), not here.
    """

    def __init__(
        self,
        points,
        metric_kind: str,
        mesh: Fraction,
        label: str = "",
        structure: GridStructure | CantorStructure | None = None,
    ):
        _check_metric(metric_kind)  # before any coordinate is converted
        scale, rows = _integer_table(points)
        point_dim(metric_kind, map(len, rows))
        self._init_table(scale, int_table(rows), metric_kind, mesh, label, structure)

    @classmethod
    def from_table(
        cls,
        scale: int,
        table: np.ndarray,
        metric_kind: str,
        mesh: Fraction,
        label: str = "",
        structure: GridStructure | CantorStructure | None = None,
    ) -> SampledSpace:
        """The space whose point i has the coordinates table[i] / scale.
        The table is an (n, dim) int64 or object array of integers, and
        scale is the lcm of the coordinate denominators.  The checks are
        the constructor's."""
        space = cls.__new__(cls)
        space._init_table(scale, table, metric_kind, mesh, label, structure)
        return space

    def _init_table(self, scale, table, metric_kind, mesh, label, structure) -> None:
        n = len(table)
        self.coord_dim = point_dim(metric_kind, [table.shape[1]] if n else [])
        order = np.lexsort(table.T)  # equal rows become neighbours
        same = np.ones(n - 1, dtype=bool)
        for col in table.T:  # a column at a time, one sorted column held
            col = col.take(order)
            same &= col[1:] == col[:-1]
        if same.any():
            raise InputError("point identifiers (coordinates) must be unique")
        del order, col  # not held through the structure scan
        mesh = Fraction(mesh)
        if mesh <= 0:
            raise InputError("mesh must be positive")
        self.metric_kind = metric_kind
        self.mesh = mesh
        self.label = label
        self.n = n
        self.scale = scale

        lo, hi = [int(c.min()) for c in table.T], [int(c.max()) for c in table.T]
        self.axis_min = tuple(Fraction(v, scale) for v in lo)
        self.axis_max = tuple(Fraction(v, scale) for v in hi)
        # int64 fast path only when the table fits and squared scaled
        # distances cannot overflow
        span = max(b - a for a, b in zip(lo, hi))
        self._bounds = lo, hi, span
        self._fast = (
            span * span * self.coord_dim < 2**62
            and -(2**63) <= min(lo)
            and max(hi) < 2**63
        )
        self._icoords = table.astype(np.int64 if self._fast else object, copy=False)

        if metric_kind == "cantor_2adic":
            self._init_cantor_bits()
            self.dist_scale_sq = 4**self._cantor_depth
        else:
            self.dist_scale_sq = scale * scale

        if structure is None:
            structure = _table_structure(self._icoords, scale)
        self.structure = structure
        self._points: tuple[tuple[Fraction, ...], ...] | None = None
        self._index: dict[tuple[int, ...], int] | None = None
        self._sorted: tuple[np.ndarray, np.ndarray, int, int] | None = None
        # cell indexes by side (_cells), under the lock
        self._cell_cache: dict[int, CellIndex] = {}
        self._cell_lock = threading.Lock()
        # farthest-point traversals by subset mask, extended in place under
        # the lock (netting.greedy_net)
        self._traversals: dict[bytes, object] = {}
        self._traversal_lock = threading.Lock()
        # Cantor level group extents by level (screenability._cantor_level_boxes)
        self._cantor_levels: dict[int, list[tuple[int, int]]] = {}
        self._min_gap_sq: Fraction | None = None
        self._diam_ub: Fraction | None = None

    @property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every point's coordinates as Fractions, built on first use from
        the integer table, which answers every query of the package."""
        if self._points is None:
            self._points = self._point_tuples()
        return self._points

    def _point_tuples(self) -> tuple[tuple[Fraction, ...], ...]:
        rows = self._icoords.tolist()
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in rows)

    # -- structural metadata -------------------------------------------------

    @property
    def screen_dim(self) -> int | None:
        """Number of colors needed minus one: grid dim, or 0 for Cantor/point."""
        if isinstance(self.structure, GridStructure):
            return self.structure.dim
        if isinstance(self.structure, CantorStructure):
            return 0
        if self.n == 1:
            return 0
        return None

    def _init_cantor_bits(self) -> None:
        if self.coord_dim != 1:
            raise InputError("cantor_2adic metric needs 1-dim coordinates")
        depth = 0
        digit_lists = []
        for k in self._icoords[:, 0].tolist():
            digits = _ternary_digits(k, self.scale)
            if digits is None:
                raise InputError(
                    f"cantor_2adic coordinate {Fraction(k, self.scale)} is not a "
                    "middle-thirds endpoint"
                )
            digit_lists.append(digits)
            depth = max(depth, len(digits))
        if depth > CANTOR_DEPTH_CAP:
            raise ResourceError(
                f"cantor_2adic sample has depth {depth}, cap {CANTOR_DEPTH_CAP}"
            )
        bits = []
        for digits in digit_lists:
            b = 0
            for lvl in range(depth):
                d = digits[lvl] if lvl < len(digits) else 0
                b = (b << 1) | (d // 2)
            bits.append(b)
        self._cantor_depth = max(depth, 1)
        if depth == 0:  # single point 0
            bits = [0 for _ in bits]
        self._cantor_bits = np.array(bits, dtype=np.int64)
        # most significant bit value table for xor results
        table = np.zeros(1 << self._cantor_depth, dtype=np.int64)
        for v in range(1, 1 << self._cantor_depth):
            table[v] = 1 << (v.bit_length() - 1)
        self._msb_table = table

    # -- exact distances ------------------------------------------------------

    def index_of(self, coords) -> int:
        if self._index is None:
            self._index = {tuple(r): i for i, r in enumerate(self._icoords.tolist())}
        key = tuple(Fraction(c) for c in coords)
        # a Fraction with denominator 1 hashes and compares as its int
        i = self._index.get(tuple(c * self.scale for c in key))
        if i is None:
            raise InputError(f"no sample point at {key}")
        return i

    def distance_sq(self, i: int, j: int) -> Fraction:
        """Exact squared distance between sample points i and j, in O(dim)."""
        if self.metric_kind == "cantor_2adic":
            msb = _msb(int(self._cantor_bits[i] ^ self._cantor_bits[j]))
            return Fraction(msb * msb, self.dist_scale_sq)
        pi, pj = self._icoords[i].tolist(), self._icoords[j].tolist()
        deltas = [a - b for a, b in zip(pi, pj)]
        if self.metric_kind == "euclidean":
            dsq = sum(x * x for x in deltas)
        else:
            dsq = max(abs(x) for x in deltas) ** 2
        return Fraction(dsq, self.dist_scale_sq)

    def _dist_sq_to(self, i: int, idx) -> np.ndarray:
        """Scaled squared distances from point i to the points idx (an index
        array or slice), in O(len(idx) * dim); entries as in dist_sq_row."""
        if self.metric_kind != "cantor_2adic":
            return _axis_dist_sq(self._icoords, self.metric_kind, idx, i)
        # cantor_2adic: d*2^D = msb(xor), so d^2*4^D = msb^2
        msb = self._msb_table[self._cantor_bits[idx] ^ self._cantor_bits[i]]
        return msb * msb

    def dist_sq_row(self, i: int) -> np.ndarray:
        """Scaled squared distances from point i to all points, computed on
        each call: exact integers, true d^2 = entry / dist_scale_sq."""
        return self._dist_sq_to(i, slice(None))

    @property
    def windowed(self) -> bool:
        """Whether the first-axis gap bounds every distance from below, so
        axis0_window can bound a search: int64 euclidean and chebyshev
        tables."""
        return self._fast and self.metric_kind != "cantor_2adic"

    def axis0_window(self, gt: int, le: int) -> np.ndarray:
        """Indices of the points whose scaled first coordinate x satisfies
        gt < x <= le, in axis order (int64 tables only)."""
        return self._sorted_window(self._icoords[:, 0], gt, le)

    def _sorted_by(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
        """(order, key[order], smallest key, largest key): an argsort of the
        key, built on first use.  A space sorts one key: its first scaled
        coordinate, or its 2-adic bits, which order the points the same
        way."""
        if self._sorted is None:
            order = np.argsort(key, kind="stable").astype(np.int32)
            col = key[order]
            self._sorted = order, col, int(col[0]), int(col[-1])
        return self._sorted

    def _sorted_window(self, key: np.ndarray, gt: int, le: int) -> np.ndarray:
        """Indices of the points whose key x satisfies gt < x <= le, in key
        order: two binary searches in the sorted key."""
        order, col, first, last = self._sorted_by(key)

        def rank(x: int) -> int:
            # points with key <= x; a bound outside the sample's span never
            # reaches searchsorted, where it could overflow int64
            if x < first:
                return 0
            if x >= last:
                return self.n
            return int(col.searchsorted(x, "right"))

        return order[rank(gt) : rank(le)]

    def near(self, c: int, bound: int) -> np.ndarray:
        """Indices (int32) of the points that can lie within scaled squared
        distance bound >= 0 of point c: on a windowed table the first-axis
        window |x0 - c0| <= isqrt(bound), in axis order; on a 2-adic table
        exactly the ball, the points sharing c's bits from bit
        k = isqrt(bound).bit_length() up, one range of the sorted bits;
        every point otherwise."""
        if self.metric_kind == "cantor_2adic":
            k = isqrt(bound).bit_length()
            top = int(self._cantor_bits[c]) >> k << k
            return self._sorted_window(self._cantor_bits, top - 1, top + (1 << k) - 1)
        if not self.windowed:
            return np.arange(self.n, dtype=np.int32)
        c0, w = int(self._icoords[c, 0]), isqrt(bound)
        return self.axis0_window(c0 - w - 1, c0 + w)

    def ball_union(self, centers, bound: int) -> np.ndarray:
        """Boolean mask of the points within scaled squared distance
        bound >= 0 of some center, on any table.

        A windowed table of at most three axes takes two cell-grid passes
        (fixed-radius near neighbours, Bentley, Stanat & Williams 1977).
        The fine cells are small enough that any two points in one are
        within the bound, so a point sharing a fine cell with a center is
        in at once; a side too fine for the index's keys skips this pass.
        Each point left compares exact distances with the centers in the
        3**d coarse cells of side isqrt(bound) + 1 around its own.  Other
        tables take the pairs of ball_pairs.
        """
        # the centers sorted and distinct, by a mask: np.unique hashes them
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(centers, dtype=np.int64)] = True
        centers = np.flatnonzero(mask)
        if not (centers.size and self.windowed and self.coord_dim <= 3):
            for p, _, _ in self.ball_pairs(centers, bound, np.arange(self.n)):
                mask[p] = True
            return mask
        per_axis = bound if self.metric_kind == "chebyshev" else bound // self.coord_dim
        fine = isqrt(per_axis) + 1
        if fine >= self._min_side:
            mask = self._cells(min(fine, self._bounds[2] + 1)).shared(centers)
        # at bound 0 the fine cells have side 1: the fine pass found the
        # centers, which are the whole answer
        if bound and not mask.all():
            for p, k in self._cell_pairs(centers, bound, lambda: np.flatnonzero(~mask)):
                mask[p[self._pair_dist_sq(p, centers[k]) <= bound]] = True
        return mask

    def balls(self, centers, bound: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR members of the balls of scaled squared radius bound >= 0 at
        the given centers: ball k holds the points
        indices[indptr[k]:indptr[k + 1]], sorted.  Where ball_pairs takes
        the cell grid, each center reads the points in the 3**d cells around
        its own; otherwise the members come from ball_pairs."""
        centers = np.asarray(centers, dtype=np.int64)
        codes = []
        if self.windowed and self.coord_dim <= 3 and centers.size > 3**self.coord_dim:
            index = self._cells(self._cell_side(isqrt(bound) + 1))
            held = index.held()
            for offset in index.offsets:
                for k, p in index.pairs(held, index.key[centers] + offset):
                    near = self._pair_dist_sq(p, centers[k]) <= bound
                    codes.append(k[near] * self.n + p[near])
        else:
            for p, k, _ in self.ball_pairs(centers, bound, np.arange(self.n)):
                codes.append(k * self.n + p)
        return _csr_of_pairs(len(centers), self.n, codes)

    def ball_pairs(self, centers, bound: int, points: np.ndarray):
        """Every pair of a point of `points` (an index array) and a center
        within scaled squared distance bound >= 0 of it, as (points, center
        positions, scaled squared distances) array chunks.

        On a windowed table of at most three axes, more than 3**d centers
        take the cell grid: each point is compared with the centers in the
        3**d cells around its own (ball_union's coarse pass), at most
        PAIR_CHUNK candidate pairs at a time.  Otherwise each center is
        compared with the points of its near set, which for at most 3**d
        centers costs no more than the grid's 3**d passes."""
        centers = np.asarray(centers, dtype=np.int64)
        if self.windowed and self.coord_dim <= 3 and centers.size > 3**self.coord_dim:
            for p, k in self._cell_pairs(centers, bound, lambda: points):
                d = self._pair_dist_sq(p, centers[k])
                near = d <= bound
                yield p[near], k[near], d[near]
            return
        member = np.zeros(self.n, dtype=bool)
        member[points] = True
        for k, c in enumerate(centers.tolist()):
            idx = self.near(c, bound)
            idx = idx[member[idx]]
            d = self._dist_sq_to(c, idx)
            near = d <= bound
            yield idx[near], np.full(int(near.sum()), k), d[near]

    def _cell_pairs(self, centers: np.ndarray, bound: int, rest):
        """Candidate (points, center positions) pairs, at most PAIR_CHUNK at
        a time: each point of rest() with the centers in the 3**d cells
        around its own, rest() being asked afresh for each of the 3**d cell
        offsets.  A cell's side is at least isqrt(bound) + 1, so no pair
        within the bound is missed."""
        index = self._cells(self._cell_side(isqrt(bound) + 1))
        return index.near_pairs(index.held(centers), rest)

    @property
    def _min_side(self) -> int:
        """The finest cell side whose cell keys fit int64: at most
        2**(60 // k) cells along each of the k <= 3 axes indexed."""
        return (self._bounds[2] >> (60 // min(self.coord_dim, 3))) + 1

    def _cell_side(self, side: int) -> int:
        """A cell side of at least side (one past the span at most, past
        which the cells do not change), coarsened where its keys would not
        fit int64."""
        return max(self._min_side, min(side, self._bounds[2] + 1))

    def _cells(self, side: int) -> CellIndex:
        """The cell index of the points, int64 tables only: the cell of a
        point is its scaled coordinates floor-divided by side on its first
        three axes.  The last CELL_ENTRIES sides asked for are kept."""
        with self._cell_lock:
            index = self._cell_cache.pop(side, None)
            if index is None:
                index = CellIndex(self._icoords[:, :3] // side)
                if len(self._cell_cache) >= CELL_ENTRIES:
                    del self._cell_cache[next(iter(self._cell_cache))]
            self._cell_cache[side] = index
        return index

    def _pair_dist_sq(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Scaled squared distances from each point p[k] to q[k]."""
        if self.metric_kind == "cantor_2adic":
            msb = self._msb_table[self._cantor_bits[p] ^ self._cantor_bits[q]]
            return msb * msb
        return _axis_dist_sq(self._icoords, self.metric_kind, p, q)

    def box(self, bounds) -> np.ndarray:
        """Sorted indices (int32) of the points whose scaled coordinates
        satisfy gt < x_k <= le on every axis k, bounds[k] = (gt, le).  A
        windowed table tests the window of the first axis on the other
        axes, one column gather each (not a take of the column, which
        would copy the whole strided column first)."""
        idx = self.axis0_window(*bounds[0]) if self.windowed else np.arange(self.n, dtype=np.int32)
        for k in range(int(self.windowed), self.coord_dim):
            col = self._icoords[idx, k]
            idx = idx[np.asarray((col > bounds[k][0]) & (col <= bounds[k][1]), dtype=bool)]
        # a window in axis order is in index order on a grid built row by row
        return idx if (idx[1:] > idx[:-1]).all() else np.sort(idx)

    def boxes(self, gt: np.ndarray, le: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR members of many boxes: box k holds the points whose scaled
        coordinates satisfy gt[k, j] < x_j <= le[k, j] on every axis j (int64
        arrays), as indices[indptr[k]:indptr[k + 1]], sorted.  An int64
        table reads the cell index at the side of the widest box (its ends
        clipped to the sample), where a box spans at most two cells on
        each of the first three axes, and tests every axis on those cells'
        points, at most PAIR_CHUNK at a time; other tables ask box once per
        box."""
        if not self._fast:
            boxes = zip(gt.tolist(), le.tolist())
            return csr([self.box(list(zip(g, l))) for g, l in boxes])
        lo, hi, _ = self._bounds
        k = min(self.coord_dim, 3)
        # clipped to [min - 1, max], the ends select the same points
        floor = np.array([max(v - 1, -(2**63)) for v in lo[:k]], dtype=np.int64)
        ceil = np.array(hi[:k], dtype=np.int64)
        g, l = np.clip(gt[:, :k], floor, ceil), np.clip(le[:, :k], floor, ceil)
        side = self._cell_side(int((l - g).max(initial=1)))
        index = self._cells(side)
        # the cells from the first one above g to the one holding l
        first = g // side + (g % side == side - 1)
        more = (l // side - first).T  # per axis, the cells spanned past the first
        key = index.key_of(first)
        held = index.held()
        codes = []
        for step in itertools.product((0, 1), repeat=k):
            at = np.flatnonzero(np.logical_and.reduce([m >= s for m, s in zip(more, step)]))
            offset = sum(map(operator.mul, step, index.stride.tolist()))
            for r, p in index.pairs(held, key[at] + offset):
                r = at[r]
                inside = functools.reduce(
                    operator.and_,
                    ((col[p] > gt[r, j]) & (col[p] <= le[r, j])
                     for j, col in enumerate(self._icoords.T)),
                )
                codes.append(r[inside] * self.n + p[inside])
        return _csr_of_pairs(len(gt), self.n, codes)

    def scaled_bound(self, radius: Fraction, closed: bool = False) -> int:
        """The largest scaled squared distance inside the ball of the given
        radius: d < radius, or d <= radius when closed."""
        x = radius * radius * self.dist_scale_sq
        bound = int_le_bound(x) if closed else int_lt_bound(x)
        return clamp_int64(bound) if self._fast else bound

    def min_positive_gap_sq(self) -> Fraction:
        """Smallest positive squared distance between sample points (1 for a
        single point).

        2-adic: the smallest xor sits between neighbours in sorted order.
        When the sample is the full product of its per-axis value sets
        (every 1-D sample, every grid), two points differ on some axis by at
        least that axis's smallest step, and neighbours along one axis attain
        it, so the gap is the smallest axis step.  Other samples scan every
        distance row.
        """
        if self._min_gap_sq is None:
            if self.n == 1:
                best = self.dist_scale_sq
            elif self.metric_kind == "cantor_2adic":
                bits = np.sort(self._cantor_bits)
                best = _msb(int((bits[1:] ^ bits[:-1]).min())) ** 2
            else:
                axes = [np.unique(col) for col in self._icoords.T]
                if prod(len(a) for a in axes) == self.n:
                    step = min(int(np.diff(a).min()) for a in axes if len(a) > 1)
                    best = step * step
                else:
                    rows = map(self.dist_sq_row, range(self.n))
                    best = min(int(row[row > 0].min()) for row in rows)
            self._min_gap_sq = Fraction(best, self.dist_scale_sq)
        return self._min_gap_sq

    def diameter_upper_bound(self) -> Fraction:
        """A rational upper bound for the sample diameter, exact when
        rational (cached)."""
        if self._diam_ub is None:
            self._diam_ub = diameter(self, np.arange(self.n)).value
        return self._diam_ub

    # -- subsets ---------------------------------------------------------------

    def subset_all(self) -> SubsetHandle:
        return SubsetHandle(self, np.ones(self.n, dtype=bool))

    def subset_from_indices(self, indices) -> SubsetHandle:
        mask = np.zeros(self.n, dtype=bool)
        for i in indices:
            if isinstance(i, bool):
                raise InputError(f"point index {i} is a boolean, not an integer")
            if not 0 <= operator.index(i) < self.n:
                raise InputError(f"point index {i} out of range")
            mask[i] = True
        return SubsetHandle(self, mask)

    def subset_from_mask(self, mask: np.ndarray) -> SubsetHandle:
        return SubsetHandle(self, mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampledSpace({self.label or 'unlabeled'}, n={self.n}, "
            f"metric={self.metric_kind}, mesh={self.mesh})"
        )


def _runs(first: np.ndarray, count: np.ndarray):
    """The ranges first[r] .. first[r] + count[r] - 1 of the rows r, as
    (row, position) arrays over consecutive rows holding at most
    PAIR_CHUNK positions in all (or one row)."""
    ends = np.cumsum(count)
    lo = 0
    while lo < len(count):
        start = int(ends[lo] - count[lo])
        hi = max(int(ends.searchsorted(start + PAIR_CHUNK, "right")), lo + 1)
        k = count[lo:hi]
        # position j of row r sits j - skip_r past first[r]
        skip = ends[lo:hi] - k - start
        pos = np.repeat(first[lo:hi] - skip, k) + np.arange(int(ends[hi - 1]) - start)
        yield np.repeat(np.arange(lo, hi), k), pos
        lo = hi


class CellIndex:
    """Rows of an integer table grouped by cell: the grid of the
    fixed-radius near-neighbour search (Bentley, Stanat & Williams 1977).

    Row i lies in the cell cells[i] of a grid of k axes.  Its key key[i]
    numbers that cell in mixed radix over the occupied cells padded by an
    empty cell on every side, so a neighbour cell's key is the key plus a
    fixed offset: offsets holds the 3**k of them, the cell itself first.
    A set of rows is grouped by held: the rows in key order, with each
    cell's run found by a dense per-cell CSR while the keys number at most
    about DENSE_CELLS per row, or by binary search in the sorted keys when
    their range is far larger.  The caller keeps the key range in int64.
    """

    def __init__(self, cells: np.ndarray):
        # column by column: a reduction down a short row is slow
        self.base = np.array([int(col.min()) - 1 for col in cells.T], dtype=np.int64)
        ext = [int(col.max()) - b + 2 for col, b in zip(cells.T, self.base.tolist())]
        stride = list(itertools.accumulate([1] + ext[:-1], operator.mul))
        self.stride = np.array(stride, dtype=np.int64)
        self.size = prod(ext)
        self.key = self.key_of(cells)
        self.dense = self.size <= DENSE_CELLS * (len(cells) + 3**len(ext))
        self.offsets = [
            sum(map(operator.mul, step, stride))
            for step in itertools.product((0, -1, 1), repeat=len(ext))
        ]
        self._all: CellRuns | None = None

    def key_of(self, cells: np.ndarray) -> np.ndarray:
        """The keys of cells at most one cell outside the occupied range
        on every axis."""
        return sum((col - b) * s for col, b, s in zip(cells.T, self.base, self.stride))

    def held(self, rows=None) -> CellRuns:
        """The rows given (an index array), or every row, grouped by cell:
        positions into rows, or the rows themselves."""
        size = self.size if self.dense else None
        if rows is not None:
            return CellRuns(self.key[rows], size)
        if self._all is None:
            self._all = CellRuns(self.key, size)
        return self._all

    def shared(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows sharing a cell with one of rows."""
        if self.dense:
            hit = np.zeros(self.size, dtype=bool)
            hit[self.key[rows]] = True
            return hit[self.key]
        mask = np.zeros(len(self.key), dtype=bool)
        for _, k in self.pairs(self.held(), np.unique(self.key[rows])):
            mask[k] = True
        return mask

    def pairs(self, held: CellRuns, keys: np.ndarray):
        """(r, held) array pairs, at most PAIR_CHUNK at a time: each
        position r of keys with each held row in the cell keyed keys[r]."""
        first, count = held.runs(keys)
        for r, pos in _runs(first, count):
            yield r, held.order[pos]

    def near_pairs(self, held: CellRuns, rest):
        """(row, held) array pairs, at most PAIR_CHUNK at a time: each row
        of rest() with each held row in the 3**k cells around its own,
        rest() being asked afresh for each cell offset."""
        for offset in self.offsets:
            rows = rest()
            if not rows.size:
                return
            for r, k in self.pairs(held, self.key[rows] + offset):
                yield rows[r], k


class CellRuns:
    """Rows grouped by cell key: order lists them in key order, and
    runs(q) spans the rows of the cells keyed q in order, by a dense
    per-cell CSR over size keys, or by binary search when size is None."""

    def __init__(self, key: np.ndarray, size: int | None):
        self.order = np.argsort(key, kind="stable")
        if size is None:
            self.start, self.sorted = None, key[self.order]
        else:
            self.start = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(np.bincount(key, minlength=size), out=self.start[1:])

    def runs(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(first, count) per key: the rows order[first:first + count]."""
        if self.start is not None:
            first = self.start[q]
            return first, self.start[q + 1] - first
        first = self.sorted.searchsorted(q, "left")
        return first, self.sorted.searchsorted(q, "right") - first


def _axis_dist_sq(table: np.ndarray, metric_kind: str, p, q) -> np.ndarray:
    """Scaled squared euclidean or chebyshev distances from each row p[k]
    of the table to q[k], or to the row q.  They are taken axis by axis,
    since gathers from one column are much faster than gathers of rows."""
    deltas = [col[p] - col[q] for col in table.T]
    if metric_kind == "chebyshev":
        return functools.reduce(np.maximum, map(np.abs, deltas)) ** 2
    return sum(x * x for x in deltas)


def csr(parts) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of a list of index arrays: part k is
    indices[indptr[k]:indptr[k + 1]]."""
    indptr = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in parts], out=indptr[1:])
    if not parts:
        return indptr, np.zeros(0, dtype=np.int32)
    return indptr, np.concatenate(parts).astype(np.int32)


def _csr_of_pairs(k: int, m: int, codes: list) -> tuple[np.ndarray, np.ndarray]:
    """CSR of k rows from chunks of (row, point) pairs, each an int64 code
    row * m + point with 0 <= point < m: each row's points sorted, by one
    sort of the codes."""
    codes = np.concatenate(codes) if codes else np.zeros(0, dtype=np.int64)
    codes.sort()
    indptr = codes.searchsorted(np.arange(k + 1, dtype=np.int64) * m)
    codes %= m
    return indptr, codes.astype(np.int32)


def _msb(x: int) -> int:
    """Value of the highest set bit of x >= 0 (0 for 0)."""
    return 1 << (x.bit_length() - 1) if x else 0


def _ternary_digits(k: int, scale: int) -> list[int] | None:
    """Finite base-3 digits of k / scale in [0,1) with digits in {0,2}, or
    None."""
    if not 0 <= k < scale:
        return None
    digits = []
    for _ in range(64):
        if k == 0:
            return digits
        d, k = divmod(3 * k, scale)
        if d not in (0, 2):
            return None
        digits.append(d)
    return None


class SubsetHandle:
    """A subset of a space's sample, stored as a read-only boolean mask over
    point indices."""

    def __init__(self, space: SampledSpace, mask):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (space.n,):
            raise InputError("a subset mask needs one entry per sample point")
        mask.flags.writeable = False
        self.space = space
        self._mask = mask

    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._mask).tolist())

    def mask(self) -> np.ndarray:
        return self._mask

    def count(self) -> int:
        return int(np.count_nonzero(self._mask))

    def is_empty(self) -> bool:
        return not self._mask.any()

    def issubset(self, other: SubsetHandle) -> bool:
        return not (self._mask & ~other._mask).any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubsetHandle)
            and self.space is other.space
            and np.array_equal(self._mask, other._mask)
        )

    def __hash__(self) -> int:
        return hash((id(self.space), self._mask.tobytes()))


def tail_start(masks, n: int) -> np.ndarray:
    """Per point, the least 1-based k with the point in every one of
    masks[k-1:], or 0 where the point misses the last mask."""
    tail = np.zeros(n, dtype=np.int64)
    suffix = np.ones(n, dtype=bool)
    for k in range(len(masks), 0, -1):
        suffix &= masks[k - 1]
        tail[suffix] = k
    return tail


def first_hit(members, n: int) -> np.ndarray:
    """Per point, the index of the first entry of members (boolean masks or
    index arrays) containing it, or -1."""
    hit = np.full(n, -1, dtype=np.int64)
    for idx in range(len(members) - 1, -1, -1):
        hit[members[idx]] = idx
    return hit


@dataclass(frozen=True)
class DiameterResult:
    value: Fraction          # exact if `exact`, else certified upper bound
    value_sq: Fraction       # always exact
    empty: bool
    exact: bool


def diameter(space: SampledSpace, subset) -> DiameterResult:
    """Max pairwise distance over the subset (a SubsetHandle, or point
    indices); 0 (flagged) when empty.

    2-adic: the highest bit on which two members disagree.  Chebyshev: the
    largest axis extent.  Euclidean: the bounding-box diagonal, attained
    exactly when two opposite box corners are members (every grid block,
    every 1-D set); other subsets scan every pair.  The squared value is
    always exact.  The linear value is exact whenever it is rational,
    otherwise a certified rational upper bound (callers that enforce
    diameter bounds compare the squared value).
    """
    if isinstance(subset, SubsetHandle):
        subset = np.flatnonzero(subset.mask())
    arr = np.asarray(subset, dtype=np.int64)
    if arr.size < 2:
        return DiameterResult(Fraction(0), Fraction(0), not arr.size, True)
    return diameter_of_sq(space, diameters_sq(space, np.array([0, arr.size]), arr)[0])


def diameter_of_sq(space: SampledSpace, worst: int) -> DiameterResult:
    """The diameter of a nonempty set whose scaled squared diameter is
    worst: exact when rational, else a certified upper bound."""
    dsq = Fraction(int(worst), space.dist_scale_sq)
    root = exact_sqrt(dsq)
    if root is not None:
        return DiameterResult(root, dsq, False, True)
    return DiameterResult(sqrt_upper(dsq, space.mesh / 1024), dsq, False, False)


def diameters_sq(space: SampledSpace, indptr: np.ndarray, indices: np.ndarray):
    """Per CSR row of point indices, the scaled squared diameter of its
    points, exact: 0 for a row of at most one point.  Each row's bits or
    axis extents come from one reduceat each way, for every row at once;
    only a euclidean row without two opposite bounding-box corners scans
    its pairs."""
    sizes = np.diff(indptr)
    multi = np.flatnonzero(sizes > 1)
    table = space._icoords
    out = np.zeros(len(sizes), dtype=table.dtype)
    if not multi.size:
        return out
    counts = sizes[multi]
    at = np.zeros(len(multi) + 1, dtype=np.int64)
    np.cumsum(counts, out=at[1:])
    if len(multi) == 1:
        points = indices[indptr[multi[0]] : indptr[multi[0] + 1]]
    else:
        points = indices[np.repeat(indptr[multi] - at[:-1], counts) + np.arange(at[-1])]
    if space.metric_kind == "cantor_2adic":
        bits = space._cantor_bits[points]
        differ = np.bitwise_or.reduceat(bits, at[:-1]) ^ np.bitwise_and.reduceat(bits, at[:-1])
        out[multi] = [_msb(x) ** 2 for x in differ.tolist()]
        return out
    table = table.take(points, axis=0)
    lo = np.minimum.reduceat(table, at[:-1], axis=0)
    hi = np.maximum.reduceat(table, at[:-1], axis=0)
    extents = hi - lo
    if space.metric_kind == "chebyshev":
        out[multi] = extents.max(axis=1) ** 2
        return out
    out[multi] = (extents * extents).sum(axis=1)
    for i in multi[~_opposite_corners(table, lo, hi, at)].tolist():
        out[i] = _pair_scan_sq(space, indices[indptr[i] : indptr[i + 1]])
    return out


# axes up to which _opposite_corners codes a corner within one int64 key
_CORNER_AXES = 30


def _opposite_corners(table: np.ndarray, lo: np.ndarray, hi: np.ndarray, at: np.ndarray):
    """Per run of rows table[at[k]:at[k + 1]], whether two of its rows sit
    at opposite corners of its bounding box lo[k], hi[k]: then the box's
    diagonal is the run's euclidean diameter.

    A corner is coded by the axes of nonzero extent on which it takes the
    maximum (on the others every row is at both ends); two corners are
    opposite when their codes are complements within those axes.  Past
    _CORNER_AXES axes no run is found to have them."""
    k, d = lo.shape
    if d > _CORNER_AXES:
        return np.zeros(k, dtype=bool)
    run = np.repeat(np.arange(k), np.diff(at))
    bit = np.int64(1) << np.arange(d, dtype=np.int64)
    live = np.asarray(hi > lo, dtype=bool)
    # column by column, each run's ends gathered to its rows by a take
    corner, code = np.ones(len(run), dtype=bool), np.zeros(len(run), dtype=np.int64)
    for j, col in enumerate(table.T):
        at_hi = np.asarray(col == hi[:, j].take(run), dtype=bool)
        corner &= at_hi | np.asarray(col == lo[:, j].take(run), dtype=bool)
        code |= (at_hi & live[:, j].take(run)).astype(np.int64) << j
    run, code = run[corner], code[corner]
    key = (run << d) | code
    opposite = np.zeros(k, dtype=bool)
    opposite[run[np.isin(key ^ (live.astype(np.int64) @ bit)[run], key)]] = True
    return opposite


def _pair_scan_sq(space: SampledSpace, arr: np.ndarray) -> int:
    """The largest scaled squared distance between two of the points arr,
    by scanning every pair."""
    return max(int(space._dist_sq_to(i, arr).max()) for i in arr.tolist())


# -- builders -------------------------------------------------------------------


def build_grid_space(
    dim: int,
    resolution: Fraction,
    metric_kind: str = "euclidean",
    point_cap: int | None = None,
    label: str | None = None,
) -> SampledSpace:
    """The uniform grid {0, h, 2h, ..., 1}^dim with its exact metric.

    mesh is h/2 times a rational upper bound for the metric's cell diameter
    factor, so every point of the underlying cube is within mesh of the
    sample.
    """
    h = parse_rational(resolution)
    if not 1 <= dim <= 3:
        raise InputError("grid dimension must be 1, 2 or 3")
    if metric_kind not in ("euclidean", "chebyshev"):
        raise InputError("grid spaces support euclidean or chebyshev metrics")
    if not (0 < h <= Fraction(1, 2)):
        raise InputError("resolution must satisfy 0 < h <= 1/2")
    inv = 1 / h
    if inv.denominator != 1:
        raise InputError("1/h must be an integer")
    side = int(inv) + 1
    count = side**dim
    cap = point_cap if point_cap is not None else default_point_cap()
    if count > cap:
        raise ResourceError(f"grid would have {count} points, cap is {cap}")
    # over the scale 1/h the point (k_1 h, ..., k_dim h) is the row
    # (k_1, ..., k_dim); the rows run in itertools.product order
    table = np.indices((side,) * dim).reshape(dim, -1).T
    factor = _EUCLID_MESH_FACTOR[dim] if metric_kind == "euclidean" else Fraction(1)
    mesh = h * factor / 2
    if label is None:
        label = (
            f"grid{dim}d_h{h.denominator}"
            if h.numerator == 1
            else f"grid{dim}d_{h}"
        )
    return SampledSpace.from_table(
        side - 1,
        np.ascontiguousarray(table, dtype=np.int64),
        metric_kind,
        mesh,
        label=label,
        structure=GridStructure(dim, h),
    )


def build_cantor_space(depth: int, point_cap: int | None = None) -> SampledSpace:
    """2**depth Cantor left endpoints with the euclidean metric, mesh 3**-depth."""
    return _cantor_space(depth, point_cap, "euclidean", 3, f"cantor_{depth}")


def build_cantor_2adic_space(depth: int, point_cap: int | None = None) -> SampledSpace:
    """The same Cantor endpoints under the 2-adic ultrametric, mesh 2**-depth."""
    return _cantor_space(depth, point_cap, "cantor_2adic", 2, f"cantor_2adic_{depth}")


def _cantor_space(depth, point_cap, metric_kind, mesh_base, label) -> SampledSpace:
    """The left endpoints k / 3**depth of the depth-level middle-thirds
    construction, sorted: level l adds 2 * 3**(depth - l) to half of them."""
    if depth < 1:
        raise InputError("cantor depth must be a positive integer")
    if depth > CANTOR_DEPTH_CAP:
        raise ResourceError(f"cantor depth capped at {CANTOR_DEPTH_CAP}")
    cap = point_cap if point_cap is not None else default_point_cap()
    if 2**depth > cap:
        raise ResourceError(f"cantor sample would have {2**depth} points, cap {cap}")
    k = np.zeros(1, dtype=np.int64)
    for level in range(1, depth + 1):
        k = (k[:, None] + np.array([0, 2 * 3 ** (depth - level)])).ravel()
    return SampledSpace.from_table(
        3**depth,
        k[:, None],
        metric_kind,
        Fraction(1, mesh_base**depth),
        label=label,
        structure=CantorStructure(depth),
    )


def build_single_point_space() -> SampledSpace:
    return SampledSpace.from_table(
        1, np.zeros((1, 1), dtype=np.int64), "euclidean", Fraction(1, 2), "single_point"
    )


def detect_structure(points) -> GridStructure | CantorStructure | None:
    """Recognize the built-in grid / Cantor samples from distinct raw
    coordinates."""
    scale, rows = _integer_table(points)
    return _table_structure(int_table(rows), scale)


def _table_structure(table: np.ndarray, scale: int):
    """detect_structure on the integer table of distinct points, point i
    having the coordinates table[i] / scale: a GridStructure, a
    CantorStructure or None."""
    n, dim = table.shape
    if dim == 1 and n > 1 and n & (n - 1) == 0:
        # the 2**depth distinct points are the depth-level Cantor endpoints
        # iff each is k / 3**depth with base-3 digits of k in {0, 2}
        depth = n.bit_length() - 1
        if scale == 3**depth and all(
            _ternary_digits(k, scale) is not None for k in table[:, 0].tolist()
        ):
            return CantorStructure(depth)
    axis = np.unique(table[:, 0])
    if len(axis) >= 2 and axis[0] == 0 and axis[-1] == scale:
        # n distinct points inside {0, h, ..., 1}**dim, a set of n points
        step = int(axis[1])
        rest = table[:, 1:]
        if (
            n == len(axis) ** dim
            and np.array_equal(axis, step * np.arange(len(axis), dtype=axis.dtype))
            and ((rest >= 0) & (rest <= scale) & (rest % step == 0)).all()
        ):
            return GridStructure(dim, Fraction(step, scale))
    return None


# -- schedules -------------------------------------------------------------------


# the n-th doubling radius has a 2**n-bit denominator, so every exact
# comparison with it costs time doubly exponential in n
MAX_DOUBLING_STAGE = 20


def _doubling_denominator(n: int) -> int:
    if n < 1:
        raise InputError(f"doubling stages start at 1, got {n}")
    if n > MAX_DOUBLING_STAGE:
        raise ResourceError(
            f"stage {n} exceeds the horizon cap {MAX_DOUBLING_STAGE}: "
            f"(1/2)^(2^{n}) has a 2^{n}-bit denominator"
        )
    return 2 ** (2**n)


def doubling_delta(n: int) -> Fraction:
    """The n-th radius of the doubling-exponent schedule: (1/2)**(2**n)."""
    return Fraction(1, _doubling_denominator(n))


def paired_delta(eps_n: Fraction, n: int) -> Fraction:
    """Net radius paired with eps_n: ((2**2**n - 1)/2**2**n) * (eps_n/2)."""
    p = _doubling_denominator(n)
    return Fraction(p - 1, p) * (eps_n / 2)


@dataclass(frozen=True)
class Schedule:
    """A finite positive epsilon schedule, 1-indexed: values[n-1] is the n-th
    term."""

    values: tuple[Fraction, ...]
    horizon: int

    def __post_init__(self):
        if self.horizon < 1 or len(self.values) != self.horizon:
            raise InputError("schedule length must equal its positive horizon")
        if any(v <= 0 for v in self.values):
            raise InputError("schedule values must be positive")

    def value(self, n: int) -> Fraction:
        if not 1 <= n <= self.horizon:
            raise InputError(f"schedule index {n} outside 1..{self.horizon}")
        return self.values[n - 1]


def epsilon_schedule(values) -> Schedule:
    vals = tuple(parse_rational(v) for v in values)
    return Schedule(vals, len(vals))
