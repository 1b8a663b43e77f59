"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from covergames import jsonio
from covergames.cli import run
from covergames.covers import (
    Ball,
    Box,
    Cover,
    CoverSeq,
    region_mask,
    union_mask,
)
from covergames.game import (
    block_index,
    hurewicz_selection_check,
    menger_selection_check,
    play_hurewicz_game,
    sc_plus_select,
)
from covergames.haver import build_haver_witness, normalize_epsilons
from covergames.netting import (
    NetCertificate,
    chain_decomposition,
    decompose_from_hurewicz,
    greedy_net,
    minimal_net_bruteforce,
    select_from_decomposition,
    validate_net,
)
from covergames.registry import builtin_names, builtin_space
from covergames.screenability import (
    FiniteCWitness,
    NoWitnessAtHorizon,
    brick_refinement,
    finite_c_search,
)
from covergames.space import (
    build_grid_space,
    diameter,
    doubling_delta,
    paired_delta,
)
from oracles import pairwise_disjoint_check, refines_oracle

RANDOM_TRIPLES = 100_000
EXHAUSTIVE_POINT_LIMIT = 200


class Budget:
    def __init__(self, criterion: int, seconds: float, title: str):
        self.criterion = criterion
        self.seconds = seconds
        self.title = title

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"\nACCEPTANCE {self.criterion}: {verdict} "
            f"({elapsed:.1f}s / budget {self.seconds:.0f}s) - {self.title}"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


# -- instance generators (seeded, deterministic) ------------------------------------


def seeded_interval_cover(s, rng, pieces=5, overlap=F(1, 16)):
    cuts = sorted(rng.randrange(1, 64) for _ in range(pieces - 1))
    cuts = [F(0)] + [F(c, 64) for c in cuts] + [F(1)]
    regions = []
    for i in range(pieces):
        lo = max(F(0), cuts[i] - overlap)
        hi = min(F(1), cuts[i + 1] + overlap)
        regions.append(
            Box(s, (lo,), (hi,), lo_closed=(lo == 0,), hi_closed=(hi == 1,))
        )
    return Cover(s, regions)


def seeded_box_cover_2d(s, rng, overlap=F(1, 8)):
    regions = []
    for i in range(2):
        for j in range(2):
            lo = (max(F(0), F(i, 2) - overlap), max(F(0), F(j, 2) - overlap))
            hi = (
                min(F(1), F(i + 1, 2) + overlap),
                min(F(1), F(j + 1, 2) + overlap),
            )
            jitter = F(rng.randrange(0, 4), 64)
            hi = (min(F(1), hi[0] + jitter), min(F(1), hi[1] + jitter))
            regions.append(
                Box(
                    s,
                    lo,
                    hi,
                    lo_closed=(lo[0] == 0, lo[1] == 0),
                    hi_closed=(hi[0] == 1, hi[1] == 1),
                )
            )
    return Cover(s, regions)


def seeded_mixed_cover(s, rng):
    """Interval cover with a ball thrown in, still amply overlapping."""
    cover = seeded_interval_cover(s, rng, pieces=4, overlap=F(1, 8))
    center = rng.randrange(s.n)
    return Cover(s, list(cover.regions) + [Ball(s, center, F(1, 4))])


# -- criterion 1: metric axioms -------------------------------------------------------


def _triples_exhaustive(n):
    return np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)


def _triples_random(n, rng, count):
    out = np.empty((count, 3), dtype=np.int64)
    for r in range(count):
        out[r] = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
    return out


def _pairwise_dsq(space, ii, jj):
    ic = space._icoords
    if space.metric_kind == "euclidean":
        delta = ic[ii] - ic[jj]
        return (delta * delta).sum(axis=1)
    if space.metric_kind == "chebyshev":
        m = np.abs(ic[ii] - ic[jj]).max(axis=1)
        return m * m
    bits = space._cantor_bits
    msb = space._msb_table[bits[ii] ^ bits[jj]]
    return msb * msb


def _triangle_violations(space, triples) -> int:
    i, j, k = triples[:, 0], triples[:, 1], triples[:, 2]
    a = _pairwise_dsq(space, i, k)
    b = _pairwise_dsq(space, i, j)
    c = _pairwise_dsq(space, j, k)
    lhs = a - b - c
    suspect = lhs > 0
    if not suspect.any():
        return 0
    # exact second phase on the suspects: (a-b-c)^2 <= 4bc, in python ints
    la = lhs[suspect].astype(object)
    bb = b[suspect].astype(object)
    cc = c[suspect].astype(object)
    bad = la * la > 4 * bb * cc
    return int(np.count_nonzero(bad))


def test_criterion_1_metric_axioms():
    with Budget(1, 5.0, "metric axioms on every built-in space"):
        rng = random.Random(20240808)
        for name in builtin_names():
            space = builtin_space(name)
            if space.n >= 3:
                if space.n <= EXHAUSTIVE_POINT_LIMIT:
                    triples = _triples_exhaustive(space.n)
                else:
                    triples = _triples_random(space.n, rng, RANDOM_TRIPLES)
                assert _triangle_violations(space, triples) == 0, name
            # identity and symmetry, spot-checked exactly
            for _ in range(min(64, space.n * space.n)):
                i, j = rng.randrange(space.n), rng.randrange(space.n)
                dij = space.distance_sq(i, j)
                assert dij == space.distance_sq(j, i)
                assert (dij == 0) == (i == j)


# -- criterion 2: net oracle equivalence ----------------------------------------------


def test_criterion_2_net_oracle_equivalence():
    with Budget(2, 60.0, "greedy vs exhaustive nets on every small subset"):
        s = build_grid_space(1, F(1, 8))
        epsilons = [F(1, 8), F(1, 4), F(1, 3), F(1, 2)]
        checked = 0
        for bits in range(1, 2**s.n):
            subset = s.subset_from_indices(
                [i for i in range(s.n) if (bits >> i) & 1]
            )
            if subset.count() > 12:
                continue
            for eps in epsilons:
                g = greedy_net(s, subset, eps)
                m = minimal_net_bruteforce(s, subset, eps)
                assert not m.exceeds_cap
                assert validate_net(s, g)
                assert validate_net(s, NetCertificate(eps, m.centers, subset))
                assert len(g.centers) >= m.size
                # minimality: no smaller center set covers
                if m.size > 1:
                    for combo in itertools.combinations(
                        subset.indices(), m.size - 1
                    ):
                        balls = [Ball(s, c, eps) for c in combo]
                        assert not union_mask(s, balls)[subset.mask()].all()
                checked += 1
        assert checked == 511 * 4


# -- criterion 3: the chain loop -------------------------------------------------------


def _criterion_3_one_space(space, rng, horizon=4):
    selections = {}
    for m in range(1, horizon + 1):
        selections[m] = greedy_net(space, space.subset_all(), doubling_delta(m)).centers
    epsilons = [F(1, 2), F(1, 4), F(1, 16)]
    dec = decompose_from_hurewicz(space, selections, horizon, epsilons)
    for a, b in zip(dec.chain, dec.chain[1:]):
        assert a.issubset(b)
    assert dec.chain[-1].count() == space.n
    union = 0
    for h in dec.chain:
        union |= h.mask()
    assert np.array_equal(union, space.subset_all().mask())
    for (n, eps), cert in dec.certificates.items():
        assert validate_net(space, cert)
    assert len(dec.certificates) == horizon * len(epsilons)

    # random validated cover sequences, then the tail check
    if space.coord_dim == 1:
        covers = CoverSeq(
            space, [seeded_mixed_cover(space, rng) for _ in range(horizon)]
        )
    else:
        covers = CoverSeq(
            space, [seeded_box_cover_2d(space, rng) for _ in range(horizon)]
        )
    covers.validate()
    sel = select_from_decomposition(space, dec, covers)
    tail = hurewicz_selection_check(space, covers, sel.picks)
    assert tail.ok
    bad = [
        p
        for p in range(space.n)
        if tail.tail_start[p] > dec.tail_start[p]
    ]
    assert not bad, f"tail contract fails at {len(bad)} points"


def test_criterion_3_chain_loop():
    with Budget(3, 120.0, "chain decomposition and selection on both grids"):
        rng = random.Random(33)
        _criterion_3_one_space(build_grid_space(1, F(1, 256)), rng)
        _criterion_3_one_space(build_grid_space(2, F(1, 64)), rng)


# -- criterion 4: screenability engine -------------------------------------------------


def _check_refinement_triple(space, cover, families, expected_count):
    assert len(families) == expected_count
    union = np.zeros(space.n, dtype=bool)
    for fam in families:
        rep = pairwise_disjoint_check(fam.regions, space.mesh)
        assert rep.ok, rep
        assert refines_oracle(fam.regions, cover)[0]
        union |= fam.union_mask()
    assert union.all()


def test_criterion_4_screenability_engine():
    with Budget(4, 120.0, "brick refinements on seeded interval and box covers"):
        s1 = build_grid_space(1, F(1, 1024))
        rng = random.Random(44)
        for trial in range(50):
            cover = seeded_interval_cover(s1, rng)
            families = brick_refinement(s1, cover)
            _check_refinement_triple(s1, cover, families, 2)
        s2 = build_grid_space(2, F(1, 64))
        for trial in range(20):
            cover = seeded_box_cover_2d(s2, rng)
            families = brick_refinement(s2, cover)
            _check_refinement_triple(s2, cover, families, 3)


# -- criterion 5: finite-C witnesses ----------------------------------------------------


def test_criterion_5_finite_c():
    with Budget(5, 60.0, "finite-C answers: d+1 generically, none at horizon 1"):
        rng = random.Random(55)
        s1 = build_grid_space(1, F(1, 1024))
        covers1 = CoverSeq(s1, [seeded_interval_cover(s1, rng) for _ in range(4)])
        res1 = finite_c_search(s1, covers1)
        assert isinstance(res1, FiniteCWitness) and res1.n == 2

        s2 = build_grid_space(2, F(1, 64))
        covers2 = CoverSeq(s2, [seeded_box_cover_2d(s2, rng) for _ in range(4)])
        res2 = finite_c_search(s2, covers2)
        assert isinstance(res2, FiniteCWitness) and res2.n == 3

        s3 = build_grid_space(1, F(1, 64))
        crossing = Cover(
            s3,
            [
                Box(s3, (F(0),), (F(3, 5),), lo_closed=(True,)),
                Box(s3, (F(2, 5),), (F(1),), hi_closed=(True,)),
            ],
        )
        res3 = finite_c_search(s3, CoverSeq(s3, [crossing]))
        assert isinstance(res3, NoWitnessAtHorizon)
        assert res3.candidates_refuted > 0
        for _, point in res3.refutations:
            assert 0 <= point < s3.n


# -- criterion 6: the block-selection engine --------------------------------------------


def test_criterion_6_sc_plus_via_game():
    with Budget(6, 120.0, "block selection satisfies all three clauses"):
        s = build_grid_space(1, F(1, 256))
        rng = random.Random(66)
        covers = CoverSeq(s, [seeded_mixed_cover(s, rng) for _ in range(8)])
        covers.validate()
        res = sc_plus_select(s, covers)

        # clause 1 + 2, exhaustively per stage
        for n in range(1, 9):
            fam = res.family(n)
            assert len(fam) < 10_000
            assert pairwise_disjoint_check(fam.regions, s.mesh).ok
            assert refines_oracle(fam.regions, covers.cover(n))[0]
        # clause 3: per-point block coverage from the tail index on
        usable = res.usable_blocks()
        assert usable, "the play must materialize at least one block"
        stage_unions = [res.family(n).union_mask() for n in range(1, 9)]
        for p in range(s.n):
            t = res.tail_index[p]
            assert t <= 2
            for k, (lo, hi) in enumerate(usable, start=1):
                if k >= t:
                    assert any(
                        stage_unions[j - 1][p] for j in range(lo, min(hi, 9))
                    )
        # blocks strictly increase, each minimal against its own round
        transcript = play_hurewicz_game(s, covers)
        assert transcript.blocks == res.blocks
        for a, b in zip(res.blocks, res.blocks[1:]):
            assert a < b
        for k, rnd in enumerate(transcript.rounds, start=1):
            fams = transcript.move_families(k)
            assert block_index(rnd.two_refs, fams, rnd.start_index) == rnd.block
            if rnd.two_refs and rnd.block > rnd.start_index + 1:
                # decrementing the block strands some selected region
                stranded = [
                    r
                    for r in (fams[n].regions[ridx] for n, ridx in rnd.two_refs)
                    if not any(
                        r in fams[n].regions
                        for n in fams
                        if n < rnd.block - 1
                    )
                ]
                assert stranded


# -- criterion 7: the small-diameter witness pipeline -------------------------------------


def test_criterion_7_haver_pipeline():
    with Budget(7, 180.0, "witness pipeline on cantor_10 and the staircase"):
        # delta formula spot values
        assert paired_delta(F(1), 1) == F(3, 4) * (F(1) / 2)
        assert paired_delta(F(1, 4), 2) == F(15, 16) * (F(1, 4) / 2)

        horizon = 8
        eps = [F(1, 4) ** n for n in range(1, horizon + 1)]

        cantor = builtin_space("cantor_10")
        chain_c = chain_decomposition(cantor, [cantor.subset_all()] * horizon)
        sched = normalize_epsilons(eps)
        w1 = build_haver_witness(cantor, chain_c, sched)
        _check_haver(cantor, w1, sched)

        s = build_grid_space(1, F(1, 256))
        stages = []
        for n in range(1, horizon + 1):
            hi = min(F(1), F(n, 4))
            stages.append(
                s.subset_from_mask(np.array([p[0] <= hi for p in s.points]))
            )
        chain_i = chain_decomposition(s, stages)
        w2 = build_haver_witness(s, chain_i, sched)
        _check_haver(s, w2, sched)


def _check_haver(space, witness, sched):
    union = np.zeros(space.n, dtype=bool)
    for n, fam in enumerate(witness.families, start=1):
        assert pairwise_disjoint_check(fam.regions, space.mesh).ok
        eps_n = sched.value(n)
        for region in fam.regions:
            dia = diameter(space, space.subset_from_mask(region_mask(region)))
            assert dia.value_sq < eps_n * eps_n
        union |= fam.union_mask()
    assert union.all()
    assert len(witness.traces) == space.n  # the claim replay reached everyone
    for p, (n, ridx) in enumerate(witness.covering_witness):
        assert region_mask(witness.families[n - 1].regions[ridx])[p]


# -- criterion 8: checker coherence ---------------------------------------------------------


def test_criterion_8_checker_coherence():
    with Budget(8, 60.0, "tail implies union over 200 seeded instances"):
        s = build_grid_space(1, F(1, 64))
        rng = random.Random(88)
        hurewicz_passes = 0
        for trial in range(200):
            covers = CoverSeq(
                s, [seeded_mixed_cover(s, rng) for _ in range(3)]
            )
            picks = [
                sorted(
                    rng.sample(
                        range(len(covers.cover(n).regions)),
                        rng.randrange(1, len(covers.cover(n).regions) + 1),
                    )
                )
                for n in range(1, 4)
            ]
            hur = hurewicz_selection_check(s, covers, picks)
            men = menger_selection_check(s, covers, picks)
            if hur.ok:
                hurewicz_passes += 1
                assert men.ok
        assert hurewicz_passes > 0

        # a designed instance: union covers, tail fails
        left = Box(s, (F(0),), (F(33, 64),), lo_closed=(True,))
        right = Box(s, (F(31, 64),), (F(1),), hi_closed=(True,))
        covers = CoverSeq(s, [Cover(s, [left, right])] * 2)
        picks = [[0], [1]]
        assert menger_selection_check(s, covers, picks).ok
        assert not hurewicz_selection_check(s, covers, picks).ok


# -- criterion 9: CLI determinism -------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    with Budget(9, 60.0, "byte-identical reports modulo wall time"):
        import json

        s = build_grid_space(1, F(1, 8))
        jsonio.dump_json(jsonio.space_to_json(s), tmp_path / "space.json")
        cover = Cover(s, [Ball(s, 0, F(5, 4)), Ball(s, 8, F(5, 4))])
        jsonio.dump_json(jsonio.cover_to_json(cover), tmp_path / "cover.json")
        covers = CoverSeq(s, [cover] * 4)
        jsonio.dump_json(jsonio.coverseq_to_json(covers), tmp_path / "covers.json")
        dec = chain_decomposition(s, [s.subset_all()] * 4)
        jsonio.dump_json(jsonio.chain_to_json(dec), tmp_path / "chain.json")
        selections = {m: range(s.n) for m in (1, 2)}
        jsonio.dump_json(
            jsonio.selections_to_json(selections), tmp_path / "selections.json"
        )
        jsonio.dump_json(jsonio.picks_to_json([[0, 1]] * 4), tmp_path / "picks.json")

        space, coverf, coversf, chainf, selectionsf, picksf = (
            str(tmp_path / name)
            for name in (
                "space.json",
                "cover.json",
                "covers.json",
                "chain.json",
                "selections.json",
                "picks.json",
            )
        )
        invocations = [
            ["net", "--space", space, "--epsilon", "1/2", "--oracle"],
            [
                "decompose",
                "--space", space,
                "--selections", selectionsf,
                "--horizon", "2",
                "--epsilons", "1/2,1/4",
            ],
            ["select", "--space", space, "--chain", chainf, "--covers", coversf],
            ["refine", "--space", space, "--cover", coverf],
            ["scfin", "--space", space, "--covers", coversf],
            ["fincspace", "--space", space, "--covers", coversf],
            [
                "haver",
                "--space", space,
                "--chain", chainf,
                "--epsilons", "1,1/4,1/16,1/64",
            ],
            ["game", "--space", space, "--covers", coversf, "--two", "covering"],
            ["scplus", "--space", space, "--covers", coversf],
            [
                "check",
                "--kind", "menger",
                "--space", space,
                "--covers", coversf,
                "--picks", picksf,
            ],
            ["demo", "--label", "cantor_3", "--horizon", "3"],
        ]
        for argv in invocations:
            code1, doc1 = run(argv)
            code2, doc2 = run(argv)
            assert code1 == code2
            a = json.dumps(
                {k: v for k, v in doc1.items() if k != "wall_time_s"},
                sort_keys=True,
            )
            b = json.dumps(
                {k: v for k, v in doc2.items() if k != "wall_time_s"},
                sort_keys=True,
            )
            assert a == b, f"non-deterministic report for {argv[0]}"
