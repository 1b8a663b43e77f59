from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covergames.netting as netting_module
from covergames.cli import Report, pipeline_demo
from covergames.covers import Ball, Cover, CoverSeq
from covergames.exact import CheckFailure, InputError, ResourceError, exact_sqrt
from covergames.game import hurewicz_selection_check
from covergames.netting import (
    NetCertificate,
    chain_decomposition,
    decompose_from_hurewicz,
    greedy_net,
    minimal_net_bruteforce,
    select_from_decomposition,
    validate_net,
)
from covergames.registry import builtin_space
from covergames.space import (
    SampledSpace,
    build_cantor_2adic_space,
    build_cantor_space,
    build_grid_space,
    doubling_delta,
    paired_delta,
)
import covergames.space as space_module
from oracles import TraversalLoop, refines_oracle


def is_valid_net(space, subset, centers, eps) -> bool:
    """Independent oracle: every subset point strictly within eps of a center."""
    for p in subset.indices():
        ok = False
        for c in centers:
            if space.distance_sq(p, c) < eps * eps:
                ok = True
                break
        if not ok:
            return False
    return True


def greedy_net_loop(space, subset, epsilon) -> tuple[int, ...]:
    """Reference farthest-point loop: the net rebuilt from scratch for each
    epsilon, with one full distance row per center."""
    idx = np.flatnonzero(subset.mask())
    bound = space.scaled_bound(F(epsilon))
    centers = [int(idx[0])]
    best = space.dist_sq_row(centers[0])[idx]
    while True:
        worst_pos = int(np.argmax(best))  # argmax takes lowest index on ties
        if bool(best[worst_pos] <= bound):
            break
        c = int(idx[worst_pos])
        centers.append(c)
        best = np.minimum(best, space.dist_sq_row(c)[idx])
    return tuple(centers)


def _space_calls(monkeypatch, *names):
    """The arguments of every call to the named SampledSpace methods."""
    calls = []
    for name in names:
        inner = getattr(SampledSpace, name)
        monkeypatch.setattr(
            SampledSpace, name, lambda self, *a, f=inner: calls.append(a) or f(self, *a)
        )
    return calls


HUGE = F(2**40)  # scaled coordinates this far apart overflow int64 distances


@st.composite
def traversal_cases(draw):
    """A space on every metric kind and table type, a nonempty subset, and
    radii that often equal a sample distance.  Small integer coordinates
    make many equidistant farthest points."""
    kind = draw(st.sampled_from(["euclidean", "chebyshev", "cantor_2adic", "object"]))
    if kind == "cantor_2adic":
        space = build_cantor_2adic_space(draw(st.integers(1, 5)))
    else:
        dim = draw(st.integers(1, 3))
        coord = st.integers(0, 5).map(F)
        point = st.tuples(*[coord] * dim)
        pts = draw(st.lists(point, min_size=1, max_size=40, unique=True))
        metric = kind
        if kind == "object":
            metric = draw(st.sampled_from(["euclidean", "chebyshev"]))
            pts = [tuple(c * HUGE for c in p) for p in pts + [(F(100),) * dim]]
        space = SampledSpace(pts, metric, F(1, 4))
        assert space._fast == (kind != "object")
    keep = draw(st.lists(st.booleans(), min_size=space.n, max_size=space.n))
    keep[draw(st.integers(0, space.n - 1))] = True
    radii = []
    for _ in range(draw(st.integers(1, 5))):
        p, q = draw(st.integers(0, space.n - 1)), draw(st.integers(0, space.n - 1))
        root = exact_sqrt(space.distance_sq(p, q))
        r = F(draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 8])))
        if kind == "object":
            r *= HUGE
        radii.append(root if root and draw(st.booleans()) else r)
    return space, space.subset_from_mask(np.array(keep)), radii


class TestTraversal:
    @given(traversal_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop(self, case):
        # one space per example: the radii are asked in drawn order, so the
        # cached traversal is both extended and read back
        space, subset, radii = case
        for eps in radii:
            cert = greedy_net(space, subset, eps)
            assert cert.centers == greedy_net_loop(space, subset, eps)
            assert validate_net(space, cert)
            if len(cert.centers) > 1:
                # the last center lies at least eps from every earlier one
                short = NetCertificate(eps, cert.centers[:-1], subset)
                assert not validate_net(space, short)

    def test_equidistant_ties_go_to_the_lowest_index(self):
        s = SampledSpace([(F(0),), (F(-1),), (F(1),)], "euclidean", F(1, 4))
        assert greedy_net(s, s.subset_all(), F(1, 2)).centers == (0, 1, 2)
        assert greedy_net_loop(s, s.subset_all(), F(1, 2)) == (0, 1, 2)

    def test_demo_nets_read_no_distance_row(self, monkeypatch):
        # unit_square_64 at horizon 6: every net is a prefix of one windowed
        # traversal, certificates are checked on their balls' windows, and
        # Haver's closed-ball complements are found through their windows
        self._assert_demo_reads_no_row(monkeypatch, "unit_square_64", 6)

    @pytest.mark.parametrize("label", ["unit_interval_1024", "cantor_10"])
    def test_line_demos_read_no_distance_row(self, monkeypatch, label):
        # 2,946 rows in the two demos when Haver read three rows per center
        self._assert_demo_reads_no_row(monkeypatch, label, 12)

    @staticmethod
    def _assert_demo_reads_no_row(monkeypatch, label, horizon):
        calls = _space_calls(monkeypatch, "dist_sq_row")
        report = Report("demo", [])
        pipeline_demo(builtin_space(label), horizon, report)
        assert all(c["pass"] for c in report.doc["checks"])
        assert calls == []

    def test_equal_subset_computes_no_distances(self, monkeypatch):
        s = build_grid_space(2, F(1, 16))
        first = greedy_net(s, s.subset_all(), F(1, 64))
        assert len(first.centers) == s.n
        radii = (F(1, 64), F(1, 4), F(2))
        want = [greedy_net_loop(s, s.subset_all(), eps) for eps in radii]
        calls = _space_calls(monkeypatch, "_dist_sq_to", "dist_sq_row")
        equal = s.subset_from_mask(np.ones(s.n, dtype=bool))
        assert [greedy_net(s, equal, eps).centers for eps in radii] == want
        assert calls == []

    def test_coarse_net_extends_only_its_centers(self):
        s = builtin_space("unit_square_64")
        bound = s.scaled_bound(F(1, 4))
        cert = greedy_net(s, s.subset_all(), F(1, 4))
        assert len(cert.centers) == 25
        # the traversal stops after the levels beyond the bound: it holds
        # the net's centers and no more
        (trav,) = s._traversals.values()
        assert trav.centers == list(cert.centers)
        assert trav.frontier <= bound < trav.radii[-1]

    def test_cache_keeps_the_most_recently_used(self, monkeypatch):
        s = build_grid_space(1, F(1, 8))
        monkeypatch.setattr(netting_module, "TRAVERSAL_ENTRIES", 2 * 4 * s.n)
        subsets = [s.subset_from_indices(range(k, s.n)) for k in range(3)]
        greedy_net(s, subsets[0], F(1, 4))
        greedy_net(s, subsets[1], F(1, 4))
        greedy_net(s, subsets[0], F(1, 4))
        greedy_net(s, subsets[2], F(1, 4))
        kept = [subsets[0].mask().tobytes(), subsets[2].mask().tobytes()]
        assert list(s._traversals) == kept

    def test_threads_share_one_traversal(self):
        s = build_grid_space(2, F(1, 16))
        radii = [F(1, k) for k in (2, 3, 5, 8, 13, 21, 34, 55)]
        want = {eps: greedy_net_loop(s, s.subset_all(), eps) for eps in radii}
        got, errors = [], []

        def work(seed):
            try:
                for eps in random.Random(seed).sample(radii, len(radii)):
                    got.append((eps, greedy_net(s, s.subset_all(), eps).centers))
            except Exception as exc:  # asserted empty below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 6 * len(radii)
        assert all(centers == want[eps] for eps, centers in got)

    def test_empty_subset_is_refused(self, interval_8):
        empty = interval_8.subset_from_indices([])
        with pytest.raises(InputError, match="nonempty subset"):
            greedy_net(interval_8, empty, F(1, 4))


def _grid_4d(side: int) -> SampledSpace:
    table = np.indices((side,) * 4).reshape(4, -1).T
    return SampledSpace.from_table(side - 1, np.ascontiguousarray(table), "euclidean", F(1, 4))


# spaces for the differential traversal tests: windowed tables of one to
# three axes take the cell grid, four axes and 2-adic bits the near sets
LEVEL_SPACES = {
    "grid_33_euclidean": lambda: build_grid_space(2, F(1, 32)),
    "grid_33_chebyshev": lambda: build_grid_space(2, F(1, 32), "chebyshev"),
    "grid_3d": lambda: build_grid_space(3, F(1, 8)),
    "grid_4d": lambda: _grid_4d(5),
    "cantor_8": lambda: build_cantor_space(8),
    "cantor_2adic_8": lambda: build_cantor_2adic_space(8),
}


def _traversal_pair(space, idx):
    """The (centers, radii) of the level traversal and of the one-center
    loop, both run to the end."""
    trav = netting_module._Traversal(space, idx)
    trav.net(space, 0)
    loop = TraversalLoop(space, idx).run(space)
    return (trav.centers, trav.radii), (loop.centers, loop.radii)


class TestLevels:
    @pytest.mark.parametrize("name", LEVEL_SPACES)
    @pytest.mark.parametrize("seed,share", [(None, 1), (1, 0.1), (2, 0.5), (3, 0.9)])
    def test_matches_the_one_center_loop(self, name, seed, share):
        space = LEVEL_SPACES[name]()
        idx = np.arange(space.n)
        if seed is not None:
            keep = np.random.default_rng(seed).random(space.n) < share
            idx = idx[keep] if keep.any() else idx[:1]
        got, want = _traversal_pair(space, idx)
        assert got == want

    def test_level_pairs_span_several_chunks(self, monkeypatch):
        # the last level of the 129 x 129 grid takes 8,320 centers, more
        # pairs per cell offset than one batch holds
        space = build_grid_space(2, F(1, 128))
        batches = []
        inner = space_module._runs

        def counted(*args):
            runs = list(inner(*args))
            batches.append(len(runs))
            return iter(runs)

        monkeypatch.setattr(space_module, "_runs", counted)
        got, want = _traversal_pair(space, np.arange(space.n))
        assert got == want
        assert max(batches) > 1

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_dense_ties_resolve_in_blocks(self, shuffled):
        # every ring point is at F = r**2 from the first center, and each
        # lies within F - 1 of hundreds of others: 900,000 conflicts in all,
        # which one block would hold at once (about 27 MB traced)
        r = 300
        ring = [(x, -r) for x in range(-r, r)] + [(r, y) for y in range(-r, r)]
        ring += [(-x, r) for x in range(-r, r)] + [(-r, -y) for y in range(-r, r)]
        if shuffled:
            np.random.default_rng(5).shuffle(ring)
        table = np.array([(0, 0)] + ring, dtype=np.int64)
        space = SampledSpace.from_table(r, table, "chebyshev", F(1, r))
        idx = np.arange(space.n)
        got, want = _traversal_pair(space, idx)
        assert got == want
        trav = netting_module._Traversal(space, idx)
        tracemalloc.start()
        try:
            trav.net(space, r * r - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trav.radii == want[1][: len(trav.radii)] and len(trav.radii) > 1
        assert peak < 64 * netting_module.LEVEL_PAIRS

    def test_a_level_of_one_center_searches_no_pairs(self, monkeypatch):
        # on a cloud with no two equal distances to the centers every level
        # holds one point, and costs what a one-center step does: a window
        # update and an argmax, no pair search
        rng = np.random.default_rng(11)
        table = np.unique(rng.integers(0, 2**20, size=(400, 2)), axis=0)
        rng.shuffle(table)
        space = SampledSpace.from_table(2**20, table, "euclidean", F(1, 2**20))
        calls = []
        inner = SampledSpace.ball_pairs

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(SampledSpace, "ball_pairs", counted)
        got, want = _traversal_pair(space, np.arange(space.n))
        assert got == want
        assert len(set(got[1])) == len(got[1]) == space.n - 1
        assert calls == []

    def test_demo_traversal_steps(self, monkeypatch):
        # 4,224 one-center steps before; unit_square_64 has 14 levels
        steps = _traversal_steps(monkeypatch)
        report = Report("demo", [])
        pipeline_demo(builtin_space("unit_square_64"), 6, report)
        assert report.all_passed
        assert 14 <= sum(t.steps for t in steps.values()) <= 100

    def test_full_traversal_steps_of_the_257_grid(self):
        # 66,048 one-center steps before; the grid has 18 levels
        space = build_grid_space(2, F(1, 256))
        cert = greedy_net(space, space.subset_all(), F(1, 1024))
        assert len(cert.centers) == space.n
        (trav,) = space._traversals.values()
        assert 18 <= trav.steps <= 200


def _traversal_steps(monkeypatch) -> dict:
    """The traversals greedy_net reads, by id, as they are asked for."""
    seen = {}
    inner = netting_module._traversal

    def recorded(space, subset):
        trav = inner(space, subset)
        seen[id(trav)] = trav
        return trav

    monkeypatch.setattr(netting_module, "_traversal", recorded)
    return seen


class TestGreedyNet:
    def test_single_center_when_eps_exceeds_diameter(self, interval_8):
        s = interval_8
        cert = greedy_net(s, s.subset_all(), F(2))
        assert len(cert.centers) == 1
        assert validate_net(s, cert)

    def test_interval_64_point_three(self, interval_64):
        s = interval_64
        cert = greedy_net(s, s.subset_all(), F(3, 10))
        assert validate_net(s, cert)
        assert is_valid_net(s, s.subset_all(), cert.centers, F(3, 10))

    def test_cantor_3_third(self, cantor_3):
        s = cantor_3
        cert = greedy_net(s, s.subset_all(), F(1, 3))
        assert validate_net(s, cert)
        # oracle: exhaustive minimal search says 2 is minimal
        oracle = minimal_net_bruteforce(s, s.subset_all(), F(1, 3))
        assert oracle.size == 2
        assert len(cert.centers) >= 2
        # the greedy centers hit both thirds
        coords = [s.points[c][0] for c in cert.centers]
        assert any(c < F(1, 3) for c in coords)
        assert any(c > F(1, 3) for c in coords)

    def test_deterministic(self, interval_64):
        s = interval_64
        a = greedy_net(s, s.subset_all(), F(1, 5))
        b = greedy_net(s, s.subset_all(), F(1, 5))
        assert a.centers == b.centers

    def test_tiny_eps_yields_all_points(self, interval_8):
        s = interval_8
        cert = greedy_net(s, s.subset_all(), F(1, 100))
        assert sorted(cert.centers) == list(range(s.n))


class TestMinimalNet:
    def test_singleton(self, interval_8):
        s = interval_8
        res = minimal_net_bruteforce(s, s.subset_from_indices([2]), F(1, 4))
        assert res.size == 1

    def test_two_distant_points(self, interval_8):
        s = interval_8
        sub = s.subset_from_indices([0, 8])  # distance 1
        res = minimal_net_bruteforce(s, sub, F(1, 4))
        assert res.size == 2

    def test_interval_8_point_three(self, interval_8):
        # oracle example: minimum 2 (e.g. centers 1/4 and 3/4)
        s = interval_8
        res = minimal_net_bruteforce(s, s.subset_all(), F(3, 10))
        assert res.size == 2
        assert is_valid_net(s, s.subset_all(), res.centers, F(3, 10))

    def test_cap_sentinel(self, interval_8):
        s = interval_8
        res = minimal_net_bruteforce(s, s.subset_all(), F(1, 100), cap=2)
        assert res.exceeds_cap

    @given(
        bits=st.integers(min_value=1, max_value=2**9 - 1),
        eps=st.sampled_from([F(1, 8), F(1, 4), F(1, 3), F(1, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_dominates_minimal(self, interval_8, bits, eps):
        s = interval_8
        sub = s.subset_from_indices(
            [i for i in range(9) if (bits >> i) & 1]
        )
        g = greedy_net(s, sub, eps)
        m = minimal_net_bruteforce(s, sub, eps)
        assert not m.exceeds_cap
        assert is_valid_net(s, sub, g.centers, eps)
        assert is_valid_net(s, sub, m.centers, eps)
        assert len(g.centers) >= m.size


class TestDecompose:
    def test_whole_space_balls(self, interval_8):
        s = interval_8
        horizon = 3
        selections = {m: range(s.n) for m in range(1, horizon + 1)}
        dec = decompose_from_hurewicz(s, selections, horizon)
        for h in dec.chain:
            assert h.count() == s.n

    def test_doubling_radii(self):
        assert doubling_delta(1) == F(1, 4)
        assert doubling_delta(2) == F(1, 16)
        assert doubling_delta(3) == F(1, 256)

    def test_missing_early_selection_skipped(self, interval_256):
        # selections only for m >= 2: stages 1 and 2 coincide, both full
        s = interval_256
        horizon = 3
        selections = {}
        for m in range(2, horizon + 1):
            selections[m] = greedy_net(s, s.subset_all(), doubling_delta(m)).centers
        dec = decompose_from_hurewicz(
            s, selections, horizon, epsilons=[F(1, 16)]
        )
        assert dec.chain[0] == dec.chain[1]
        assert dec.chain[0].count() == s.n
        cert = dec.certificates[(1, F(1, 16))]
        assert validate_net(s, cert)
        # the certificate for eps=1/16 uses the stage-2 selection
        assert cert.centers == selections[2]

    @pytest.mark.parametrize("center", [-1, 9])
    def test_center_outside_the_sample_rejected(self, interval_8, center):
        # ball_union would read -1 as the last point
        with pytest.raises(InputError, match="selection 2 has a center outside 0..8"):
            decompose_from_hurewicz(interval_8, {1: [0], 2: [0, center]}, 2)

    def test_orphan_point_reported(self, interval_8):
        s = interval_8
        # no selection covers the right endpoint at the last stage
        selections = {2: [0]}
        with pytest.raises(CheckFailure):
            decompose_from_hurewicz(s, selections, 2)

    def test_monotone_and_union(self, interval_256):
        s = interval_256
        horizon = 4
        rng = random.Random(11)
        selections = {}
        for m in range(1, horizon + 1):
            # random sub-nets at later stages leave early stages ragged
            centers = sorted(rng.sample(range(s.n), s.n // 2)) if m < 3 else list(range(s.n))
            selections[m] = centers
        dec = decompose_from_hurewicz(s, selections, horizon)
        for a, b in zip(dec.chain, dec.chain[1:]):
            assert a.issubset(b)
        assert dec.chain[-1].count() == s.n


class TestSelectFromDecomposition:
    def test_trivial_single_region(self, interval_8):
        s = interval_8
        dec = chain_decomposition(s, [s.subset_all()])
        covers = CoverSeq(s, [Cover(s, [Ball(s, 4, F(2))])])
        sel = select_from_decomposition(s, dec, covers)
        assert sel.picks == ((0,),)

    def test_staircase_tail(self, interval_64):
        s = interval_64
        stages = []
        for n in range(1, 5):
            hi = min(F(1), F(n, 4))
            stages.append(
                s.subset_from_mask(np.array([p[0] <= hi for p in s.points]))
            )
        dec = chain_decomposition(s, stages)
        covers = CoverSeq(
            s,
            [
                Cover(
                    s,
                    [Ball(s, c, F(1, 4)) for c in range(0, 65, 8)],
                )
                for _ in range(4)
            ],
        )
        sel = select_from_decomposition(s, dec, covers)
        tail = hurewicz_selection_check(s, covers, sel.picks)
        assert tail.ok
        # the contract: the tail starts no later than the chain entry stage
        for p in range(s.n):
            assert tail.tail_start[p] <= dec.tail_start[p]

    def test_refinement_witnessed(self, interval_64):
        s = interval_64
        dec = chain_decomposition(s, [s.subset_all()])
        cover = Cover(s, [Ball(s, c, F(1, 4)) for c in range(0, 65, 8)])
        covers = CoverSeq(s, [cover])
        sel = select_from_decomposition(s, dec, covers)
        # oracle: the fitted balls refine the cover
        fitted = [Ball(s, c, sel.nets[0].epsilon) for c in sel.nets[0].centers]
        assert refines_oracle(fitted, cover)[0]

    def test_round_trip(self, interval_256):
        # selections -> chain -> per-stage ball picks -> chain again: the
        # final union is the full sample
        s = interval_256
        horizon = 3
        selections = {}
        for m in range(1, horizon + 1):
            selections[m] = greedy_net(s, s.subset_all(), doubling_delta(m)).centers
        dec = decompose_from_hurewicz(s, selections, horizon)
        covers = CoverSeq(
            s,
            [
                Cover(s, [Ball(s, c, doubling_delta(m)) for c in range(s.n)])
                for m in range(1, horizon + 1)
            ],
        )
        sel = select_from_decomposition(s, dec, covers)
        # rebuild selections from the fitted picks (balls of radius delta_m)
        rebuilt = {
            m: [covers.cover(m).regions[i].center for i in sel.picks[m - 1]]
            for m in range(1, horizon + 1)
        }
        dec2 = decompose_from_hurewicz(s, rebuilt, horizon)
        assert dec2.chain[-1].count() == s.n


def test_doubling_terms_past_the_horizon_cap_raise():
    assert doubling_delta(20) == F(1, 2 ** 2**20)
    with pytest.raises(ResourceError):
        doubling_delta(21)
    with pytest.raises(ResourceError):
        paired_delta(F(1), 21)


@pytest.mark.parametrize("n", [0, -1])
def test_doubling_terms_below_stage_1_raise(n):
    # 2 ** (2 ** -1) would be a float, and then a TypeError in Fraction
    with pytest.raises(InputError):
        doubling_delta(n)
    with pytest.raises(InputError):
        paired_delta(F(1), n)


def test_decompose_rejects_a_horizon_past_the_cap_before_any_work(interval_8):
    selections = {1: range(9)}
    with pytest.raises(ResourceError):
        decompose_from_hurewicz(interval_8, selections, 21)
