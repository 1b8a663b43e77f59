"""Epsilon-nets, total-boundedness certificates, and the two chain
constructions: building a monotone totally-bounded chain out of shrinking
ball selections, and selecting finite subcovers out of such a chain.

The chain builder intersects tails of ball-selection coverages at the
doubling-exponent radii (1/2)**(2**n); the selector goes the other way,
turning a chain plus arbitrary validated covers into finite per-stage
selections.  Per-cover Lebesgue numbers do the refinement fitting: metric
re-construction has no desk-scale analogue, and a certified per-cover
radius is exact and sufficient for every pipeline here.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .covers import CoverSeq, lebesgue_argmax_regions, lebesgue_number
from .exact import CheckFailure, InputError, ResourceError
from .space import SampledSpace, SubsetHandle, doubling_delta, first_hit, tail_start


@dataclass(frozen=True)
class NetCertificate:
    """A finite center set whose open epsilon-balls cover the target subset."""

    epsilon: Fraction
    centers: tuple[int, ...]
    covered: SubsetHandle


def _sample_indices(space: SampledSpace, centers) -> np.ndarray | None:
    """The centers as an int64 array, or None when one is no sample point."""
    index = np.asarray(centers, dtype=np.int64)
    return None if index.size and (index.min() < 0 or index.max() >= space.n) else index


def validate_net(space: SampledSpace, cert: NetCertificate) -> bool:
    """Re-check a certificate pointwise: every covered point strictly within
    epsilon of some center, by one SampledSpace.ball_union of the centers."""
    index = _sample_indices(space, cert.centers)
    if cert.epsilon <= 0 or index is None:
        raise InputError("a net needs a positive epsilon and sample-point centers")
    hit = space.ball_union(index, space.scaled_bound(cert.epsilon))
    return not (cert.covered.mask() & ~hit).any()


# cached traversals per space: each holds at most 4 entries per sample point
# (distances to the nearest center, subset indices, centers, radii)
TRAVERSAL_ENTRIES = 2**22


# conflicting pairs of tied points a traversal level holds at once; a level
# with more takes its centers in blocks of its ties, in index order
LEVEL_PAIRS = 2**16


class _Traversal:
    """Farthest-point order (Gonzalez 1985) of one subset, built only as far
    as a query needs, one distance level at a time.

    The first center is the subset's lowest index; each next center is the
    point farthest from the centers so far, ties to the lowest index.
    radii[k - 1] is the scaled squared distance from centers[k] to the
    earlier centers when it was added; the radii never increase.  Neither
    choice depends on a radius, so the greedy net at any bound is the
    prefix of centers up to the first radius at most the bound.

    While the frontier F (the largest distance to the centers) holds, the
    next center is the lowest-index point at F that no center taken at F
    lies within F - 1 of, and a center taken at F brings closer only the
    points within F - 1 of it.  So one level takes every center at F: the
    lexicographically first subset of the points at F whose members are
    pairwise at least F apart (the technique of net-trees, Har-Peled &
    Mendel 2006, with Gonzalez's tie order).
    """

    def __init__(self, space: SampledSpace, idx: np.ndarray):
        first = int(idx[0])
        self.centers = [first]
        self.radii: list[int] = []
        self.left = len(idx) - 1  # subset points not yet centers
        self.steps = 0  # levels plus independence rounds, an op count
        # per sample point, the scaled squared distance to the nearest
        # center; -1 outside the subset, so it never reaches the frontier
        self.best = np.full(space.n, -1, dtype=np.int64 if space._fast else object)
        self.best[idx] = space._dist_sq_to(first, idx)
        self._next()

    def _next(self) -> None:
        self.worst = int(np.argmax(self.best))  # lowest index on ties
        self.frontier = int(self.best[self.worst])

    def _level(self, space: SampledSpace) -> None:
        """Take every center at the frontier f.  The lowest-index point at
        f is one whatever the other ties, so it goes first, alone: a level
        of one center costs one window update and one argmax, as a
        one-center step does.  The ties it leaves at f are taken in blocks:
        each is an index-ordered prefix of the ties left, at most twice as
        long as the block before, whose conflicts number at most
        LEVEL_PAIRS."""
        f = self.frontier
        self.steps += 1
        self._take(space, [self.worst], f)
        size = space.n
        while self.frontier == f:
            ties = np.flatnonzero(self.best == f)[: 2 * size]
            taken, size = self._independent(space, ties, f)
            self._take(space, taken.tolist(), f)

    def _independent(self, space: SampledSpace, ties: np.ndarray, f: int):
        """The lexicographically first subset of a prefix of the sorted
        points ties whose members are pairwise at scaled squared distance
        >= f, and the prefix's length.  The prefix is the longest of ties,
        its first half, quarter, ... with at most LEVEL_PAIRS pairs within
        f - 1.  Each round takes the candidates that no lower undecided
        candidate lies within f - 1 of, and drops the candidates they
        conflict with."""
        while (pairs := _conflicts(space, ties, f - 1)) is None:
            ties = ties[: len(ties) // 2]
        lo, hi = pairs
        undecided = np.ones(len(ties), dtype=bool)
        taken = np.zeros(len(ties), dtype=bool)
        while lo.size:  # the conflicts among undecided candidates
            self.steps += 1
            take = undecided.copy()
            take[hi] = False
            taken |= take
            undecided &= ~take
            undecided[hi[take[lo]]] = False
            live = undecided[lo] & undecided[hi]
            lo, hi = lo[live], hi[live]
        return ties[taken | undecided], len(ties)

    def _take(self, space: SampledSpace, taken: list[int], f: int) -> None:
        """Add the centers taken at the frontier f, then lower the
        distances of the points within f - 1 of one of them."""
        self.centers += taken
        self.radii += [f] * len(taken)
        self.left -= len(taken)
        if not self.left:  # every subset point is a center
            self.best, self.frontier = None, 0
            return
        if len(taken) == 1:
            # entries -1 (outside the subset) and 0 (centers) never change
            c = taken[0]
            near = space.near(c, f - 1)
            self.best[near] = np.minimum(self.best[near], space._dist_sq_to(c, near))
        else:
            rest = np.flatnonzero(self.best > 0)
            for p, _, d in space.ball_pairs(taken, f - 1, rest):
                np.minimum.at(self.best, p, d)
        self._next()

    def net(self, space: SampledSpace, bound: int) -> tuple[int, ...]:
        """The greedy net's centers at a scaled squared bound >= 0: the
        centers added while the farthest point lay beyond the bound."""
        while self.frontier > bound:
            self._level(space)
        k = bisect_left(self.radii, -bound, key=operator.neg)
        return tuple(self.centers[: k + 1])


def _conflicts(space: SampledSpace, ties: np.ndarray, bound: int):
    """The pairs (lo, hi), lo < hi, of positions in the sorted points ties
    whose points lie within scaled squared distance bound of each other, or
    None once they number more than LEVEL_PAIRS."""
    lo, hi, held = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], 0
    if len(ties) > 1:
        for p, k, _ in space.ball_pairs(ties, bound, ties):
            pos = ties.searchsorted(p)
            lower = pos < k  # each conflict once, and no point with itself
            held += int(np.count_nonzero(lower))
            if held > LEVEL_PAIRS:
                return None
            lo.append(pos[lower])
            hi.append(k[lower])
    return np.concatenate(lo), np.concatenate(hi)


def _traversal(space: SampledSpace, subset: SubsetHandle) -> _Traversal:
    """The subset's traversal, kept on the space; the least recently used
    one goes once the space holds TRAVERSAL_ENTRIES // (4 n) of them."""
    cache = space._traversals
    key = subset.mask().tobytes()
    trav = cache.pop(key, None)
    if trav is None:
        idx = np.flatnonzero(subset.mask())
        if idx.size == 0:
            raise InputError("greedy_net needs a nonempty subset")
        trav = _Traversal(space, idx)
        while cache and len(cache) >= max(1, TRAVERSAL_ENTRIES // (4 * space.n)):
            del cache[next(iter(cache))]
    cache[key] = trav
    return trav


def greedy_net(
    space: SampledSpace, subset: SubsetHandle, epsilon: Fraction
) -> NetCertificate:
    """Farthest-point greedy net of the subset, centers drawn from the subset.

    Ties among equidistant farthest candidates go to the lowest point index;
    the first center is the lowest-index point of the subset.  The centers
    are a prefix of the subset's cached farthest-point traversal, which is
    extended only as far as epsilon needs.  Terminates on any finite sample
    and always validates.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    bound = space.scaled_bound(epsilon)
    with space._traversal_lock:
        centers = _traversal(space, subset).net(space, bound)
    return NetCertificate(epsilon, centers, subset)


@dataclass(frozen=True)
class MinimalNetResult:
    size: int
    centers: tuple[int, ...]
    exceeds_cap: bool = False


def minimal_net_bruteforce(
    space: SampledSpace,
    subset: SubsetHandle,
    epsilon: Fraction,
    cap: int | None = None,
) -> MinimalNetResult:
    """Minimum-cardinality net by exhaustive search over center subsets in
    increasing size; the oracle against which the greedy net is judged.

    Centers are drawn from the subset.  If no net of size <= cap exists the
    sentinel result (exceeds_cap=True) is returned.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    idx = subset.indices()
    k = len(idx)
    if k == 0:
        raise InputError("minimal_net_bruteforce needs a nonempty subset")
    if k > 24:
        raise ResourceError("exhaustive net search is capped at 24 subset points")
    cap = k if cap is None else min(cap, k)
    bound = space.scaled_bound(epsilon)
    arr = np.fromiter(idx, dtype=np.int64)
    coverage = {}
    for c in idx:
        row = space._dist_sq_to(c, arr)
        bits = 0
        for pos in np.flatnonzero(row <= bound):
            bits |= 1 << int(pos)
        coverage[c] = bits
    full = (1 << k) - 1
    for size in range(1, cap + 1):
        for combo in itertools.combinations(idx, size):
            got = 0
            for c in combo:
                got |= coverage[c]
            if got == full:
                return MinimalNetResult(size, tuple(combo))
    return MinimalNetResult(0, (), exceeds_cap=True)


@dataclass(frozen=True)
class SigmaDecomposition:
    """A monotone chain of totally bounded pieces whose union is the sample,
    with optional per-(stage, epsilon) net certificates."""

    space: SampledSpace
    chain: tuple[SubsetHandle, ...]
    certificates: dict[tuple[int, Fraction], NetCertificate]
    tail_start: tuple[int, ...]  # per point: least n with point in chain[n-1]

    @property
    def horizon(self) -> int:
        return len(self.chain)

    def stage(self, n: int) -> SubsetHandle:
        if not 1 <= n <= self.horizon:
            raise InputError(f"chain index {n} outside 1..{self.horizon}")
        return self.chain[n - 1]


def _validate_chain(
    space: SampledSpace,
    chain: Sequence[SubsetHandle],
    orphan_message: str = "chain union misses sample point {}",
):
    """Monotone stages whose union (the last stage) is the whole sample; an
    orphan is reported by its highest index."""
    for n in range(len(chain) - 1):
        if not chain[n].issubset(chain[n + 1]):
            raise CheckFailure(
                f"chain is not monotone at stage {n + 1}", witness=n + 1
            )
    missing = np.flatnonzero(~chain[-1].mask()) if chain else range(space.n)
    if len(missing):
        orphan = int(missing[-1])
        raise CheckFailure(orphan_message.format(orphan), witness=orphan)


def chain_decomposition(
    space: SampledSpace, chain: Sequence[SubsetHandle]
) -> SigmaDecomposition:
    """Wrap a directly-given monotone chain (validated) as a decomposition."""
    chain = tuple(chain)
    if not chain:
        raise InputError("chain must be nonempty")
    _validate_chain(space, chain)
    tail = first_hit([h.mask() for h in chain], space.n) + 1
    return SigmaDecomposition(space, chain, {}, tuple(tail.tolist()))


def decompose_from_hurewicz(
    space: SampledSpace,
    selections: Mapping[int, Sequence[int]],
    horizon: int,
    epsilons: Sequence[Fraction] = (),
) -> SigmaDecomposition:
    """Chain stages as tail intersections of the selection coverages.

    selections maps stage m (1-based, indices may be missing) to the centers
    of finitely many balls of the stage's radius (1/2)**(2**m).  Stage n of
    the chain intersects the selection unions over present m in n..horizon.
    Every sample point must lie in some tail (reported otherwise); for each
    requested epsilon a net certificate for stage n is extracted from the
    selection at the least stage m >= n whose radius is <= epsilon, and
    checked against that selection's union, which holds stage n.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    doubling_delta(horizon)  # a horizon past the cap fails before any work
    sel: dict[int, Sequence[int]] = {}
    for m, centers in selections.items():
        m = int(m)
        if not 1 <= m <= horizon:
            raise InputError(f"selection index {m} outside 1..{horizon}")
        if _sample_indices(space, centers) is None:
            raise InputError(f"selection {m} has a center outside 0..{space.n - 1}")
        sel[m] = centers
    epsilons = [Fraction(eps) for eps in epsilons]
    if any(eps <= 0 for eps in epsilons):
        raise InputError("epsilon must be positive")

    # a missing stage constrains nothing; stage n holds the points whose
    # tail start is at most n
    everything = np.ones(space.n, dtype=bool)
    bounds = {m: space.scaled_bound(doubling_delta(m)) for m in sel}
    unions = [
        space.ball_union(sel[m], bounds[m]) if m in sel else everything
        for m in range(1, horizon + 1)
    ]
    tail = tail_start(unions, space.n)
    chain = [
        space.subset_from_mask((tail > 0) & (tail <= n))
        for n in range(1, horizon + 1)
    ]
    _validate_chain(
        space,
        chain,
        "sample point {} lies in no coverage tail: the truncated tail "
        "condition fails",
    )

    certificates: dict[tuple[int, Fraction], NetCertificate] = {}
    for n in range(1, horizon + 1):
        for eps in epsilons:
            stages = (m for m in range(n, horizon + 1) if m in sel)
            m = next((m for m in stages if doubling_delta(m) <= eps), None)
            if m is None:
                raise CheckFailure(
                    f"no selection stage >= {n} has radius <= {eps} "
                    f"within the horizon",
                    witness=(n, eps),
                )
            # the selection's open balls at its own radius lie within eps
            # of its centers: the certificate needs no union of its own
            cert = NetCertificate(eps, tuple(sel[m]), chain[n - 1])
            within = bounds[m] <= space.scaled_bound(eps)
            if not within or (cert.covered.mask() & ~unions[m - 1]).any():
                raise CheckFailure(
                    f"extracted certificate for stage {n} at epsilon {eps} "
                    f"does not validate",
                    witness=(n, eps),
                )
            certificates[(n, eps)] = cert

    return SigmaDecomposition(space, tuple(chain), certificates, tuple(tail.tolist()))


@dataclass(frozen=True)
class HurewiczSelection:
    """Per-stage finite subcover picks (indices into each cover's regions),
    with the nets that produced them."""

    picks: tuple[tuple[int, ...], ...]  # 1-based stage n -> picks[n-1]
    nets: tuple[NetCertificate, ...]


def select_from_decomposition(
    space: SampledSpace,
    decomposition: SigmaDecomposition,
    covers: CoverSeq,
) -> HurewiczSelection:
    """Finite subcover picks: stage m takes a (lambda_m/2)-net of chain stage
    m and maps each net ball into a containing cover element via the
    Lebesgue guarantee.

    Contract: every sample point x lies in the union of the picks at every
    stage n >= (least m with x in stage m).
    """
    if covers.space is not space or decomposition.space is not space:
        raise InputError("decomposition and covers must live on the given space")
    if covers.horizon < decomposition.horizon:
        raise InputError("cover sequence shorter than the chain")
    covers.validate()
    _validate_chain(space, decomposition.chain)

    picks: list[tuple[int, ...]] = []
    nets: list[NetCertificate] = []
    for m in range(1, covers.horizon + 1):
        cover = covers.cover(m)
        lam = lebesgue_number(cover)
        # beyond its horizon the chain is constant: its union is the sample,
        # so the final stage serves every later cover index
        stage = decomposition.stage(min(m, decomposition.horizon))
        if stage.is_empty():
            picks.append(())
            nets.append(NetCertificate(lam / 2, (), stage))
            continue
        net = greedy_net(space, stage, lam / 2)
        chosen = lebesgue_argmax_regions(cover, np.asarray(net.centers), lam)
        picks.append(tuple(np.unique(chosen).tolist()))
        nets.append(net)
    return HurewiczSelection(tuple(picks), tuple(nets))
