"""Scale ladder: the farthest-point traversal and the demo pipeline on
build_grid_space 2-D grids of growing size.

    python tools/ladder.py [--src DIR] [--den 64 128 256 512]

Each rung runs in a fresh interpreter with DIR (default: this checkout's
src) first on its path.  It runs cli.pipeline_demo at horizon 6 on the grid
of side 1/DEN, timing its wall time (perf_counter) and then reading the
process's max RSS.  During the demo it sums the wall time spent in
covers.lebesgue_number and covers.lebesgue_argmax_regions (lebesgue_s) and
in netting.decompose_from_hurewicz (decompose_s), and counts the exact
Lebesgue evaluations, the _LebesgueTable.radius_lb calls (lebesgue_exact),
the covers.Ball objects built (balls_built) and the box pairs the
disjointness broad phase sends to the float test, covers._float_close
(broad_candidates; null for a source without that function).  It splits the Haver
witness into three phases: ONE's blocks, the wall time in
game.strategy_F_move (pointwise_s); the rest of the game,
game.sc_plus_select less ONE's blocks (game_rest_s); and the Haver
assembly after the game, haver.build_haver_witness less the game and
haver.build_stage_covers (haver_rest_s).  Then, on a fresh copy of
the grid, it times one full farthest-point traversal (the greedy net below
the minimum gap) and reads its step count, levels plus independence
rounds.  Then it times the full traversal of a seeded random cloud of n
points, whose levels hold one point each: no tie to share a level, the case
where a level step gains nothing.  Last it writes the grid's space file, as
the benchmark's grid_files workload writes one, and times the load that
each file command makes of it: decode, table and digest, through the
command's own loader and its collector pause (load_s, the median of three
loads).
One JSON line per rung; DEN 64, 128, 256 and 512 give n = 4,225, 16,641,
66,049 and 263,169.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def rung(den: int) -> dict:
    from covergames import cli, netting
    from covergames.space import build_grid_space

    space = build_grid_space(2, Fraction(1, den))
    report = cli.Report("demo", [])
    totals = demo_probe()
    t = time.perf_counter()
    cli.pipeline_demo(space, 6, report)
    demo_s = time.perf_counter() - t
    probe = dict(totals)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    space = build_grid_space(2, Fraction(1, den))
    t = time.perf_counter()
    cert = netting.greedy_net(space, space.subset_all(), Fraction(1, 2 * den))
    traversal_s = time.perf_counter() - t
    (trav,) = space._traversals.values()
    assert len(cert.centers) == space.n
    cloud_s = cloud_traversal_s(space.n)
    load_s = space_load_s(space)
    return {
        "n": space.n,
        "traversal_s": round(traversal_s, 3),
        # absent from a one-center traversal, whose steps are its n - 1 centers
        "traversal_steps": getattr(trav, "steps", None),
        "levels": len(set(trav.radii)),
        "cloud_traversal_s": round(cloud_s, 3),
        "load_s": round(load_s, 4),
        "demo_s": round(demo_s, 3),
        "lebesgue_s": round(probe["lebesgue_s"], 3),
        "lebesgue_exact": probe["lebesgue_exact"],
        "decompose_s": round(probe["decompose_s"], 3),
        "pointwise_s": round(probe["pointwise_s"], 3),
        "game_rest_s": round(probe["game_s"] - probe["pointwise_s"], 3),
        "haver_rest_s": round(
            probe["haver_s"] - probe["game_s"] - probe["stage_covers_s"], 3
        ),
        "balls_built": probe["balls_built"],
        "broad_candidates": probe["broad_candidates"],
        "max_rss_mb": round(rss_mb, 1),
        "checks_passed": report.all_passed,
    }


def demo_probe() -> dict:
    """Wraps the measured functions wherever the package holds them, and
    returns the dict their calls add to: the wall time inside the Lebesgue
    functions (lebesgue_s), inside decompose_from_hurewicz (decompose_s),
    strategy_F_move (pointwise_s), sc_plus_select (game_s),
    build_haver_witness (haver_s) and build_stage_covers (stage_covers_s),
    the exact Lebesgue evaluations (lebesgue_exact), the Ball objects
    built (balls_built) and the candidate box pairs of the disjointness
    broad phase (broad_candidates)."""
    from covergames import cli, covers, game, haver, netting, screenability

    probe = {"lebesgue_exact": 0, "balls_built": 0, "broad_candidates": None}
    timed = [
        (covers, "lebesgue_number", "lebesgue_s"),
        (covers, "lebesgue_argmax_regions", "lebesgue_s"),
        (netting, "decompose_from_hurewicz", "decompose_s"),
        (game, "strategy_F_move", "pointwise_s"),
        (game, "sc_plus_select", "game_s"),
        (haver, "build_haver_witness", "haver_s"),
        (haver, "build_stage_covers", "stage_covers_s"),
    ]
    probe.update({key: 0.0 for _, _, key in timed})
    for owner, name, key in timed:
        inner = getattr(owner, name)

        def wrapped(*args, _inner=inner, _key=key, **kwargs):
            t = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                probe[_key] += time.perf_counter() - t

        for module in (covers, cli, netting, screenability, game, haver):
            if getattr(module, name, None) is inner:
                setattr(module, name, wrapped)
    counted = [
        (covers._LebesgueTable, "radius_lb", "lebesgue_exact"),
        (covers.Ball, "__post_init__", "balls_built"),
    ]
    for owner, name, key in counted:
        inner = getattr(owner, name)

        def wrapped(*args, _inner=inner, _key=key):
            probe[_key] += 1
            return _inner(*args)

        setattr(owner, name, wrapped)
    close = getattr(covers, "_float_close", None)
    if close is not None:
        probe["broad_candidates"] = 0

        def counted_close(lo, hi, i, j, pad):
            probe["broad_candidates"] += len(i)
            return close(lo, hi, i, j, pad)

        covers._float_close = counted_close
    return probe


def cloud_traversal_s(n: int) -> float:
    """Seconds for the full traversal of n seeded random points of the
    2-D lattice of side 2**-20, with distinct first coordinates."""
    import numpy as np

    from covergames import netting
    from covergames.space import SampledSpace

    rng = np.random.default_rng(n)
    x = rng.choice(2**20, size=n, replace=False)
    table = np.column_stack([x, rng.integers(0, 2**20, size=n)]).astype(np.int64)
    scale = Fraction(1, 2**20)
    space = SampledSpace.from_table(2**20, table, "euclidean", scale)
    t = time.perf_counter()
    cert = netting.greedy_net(space, space.subset_all(), scale / 2)
    elapsed = time.perf_counter() - t
    assert len(cert.centers) == n
    return elapsed


def space_load_s(space) -> float:
    """The median wall time of three loads of the space's file, each as a
    file command makes it: cli._load_space (the JSON decode and the space
    built from the document, with the file command's collector pause) and
    the space's digest."""
    import tempfile

    from covergames import cli, jsonio

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.json"
        path.write_text(json.dumps(jsonio.space_to_json(space), separators=(",", ":")))
        times = []
        for _ in range(3):
            t = time.perf_counter()
            loaded = cli._load_space(str(path), cli.RunConfig(point_cap=space.n), False)
            jsonio.space_digest(loaded)
            times.append(time.perf_counter() - t)
    return sorted(times)[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="the package source to run")
    parser.add_argument("--den", type=int, nargs="+", default=[64, 128, 256, 512])
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung:
        sys.path.insert(0, args.src)
        print(json.dumps(rung(args.rung)), flush=True)
        return
    for den in args.den:
        cmd = [sys.executable, __file__, "--src", args.src, "--rung", str(den)]
        subprocess.run(cmd, check=True)


if __name__ == "__main__":
    main()
