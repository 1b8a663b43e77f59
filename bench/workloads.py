"""Seeded workload inputs and invocation lists.

Every workload is a list of CLI invocations.  The files they read are
written here from the seed with the standard library only, so the program
under test receives nothing but the generated files.  The seed is folded
onto one of ``VARIANTS`` input variants: every variant has frozen answers
in ``frozen.json``, so every run is checked exactly, whatever its seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

VARIANTS = 32

# BENCHMARK.json records why each workload is here
WORKLOADS = ("square_demo", "line_search", "grid_files")
KINDS = ("demo", "fincspace", "refine", "check")  # report kinds timed per pass
GRID_DEN = 128  # 129 x 129 points, h = 1/128
GRID_LABEL = f"grid2d_h{GRID_DEN}"
GRID_MESH = F(1, GRID_DEN) * F(3, 2) / 2  # h * (euclidean 2-D cell factor) / 2
CHECK_FILES = 4
CHECK_HORIZON = 6
FINC_COVERS = 4
PIECES_64 = (10, 12, 12, 14, 16)  # interval cover piece lengths, summing to 64


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _q(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def _box(lo, hi) -> dict:
    """Open box with ends closed exactly where they touch the unit cube's
    boundary (how relatively-open sets are written)."""
    return {
        "shape": "box",
        "lo": [_q(x) for x in lo],
        "hi": [_q(x) for x in hi],
        "lo_closed": [x == 0 for x in lo],
        "hi_closed": [x == 1 for x in hi],
    }


def interval_cover(rng: random.Random, overlap=F(1, 16)) -> list[dict]:
    """Five overlapping intervals whose lengths (in 1/64) are a seeded
    permutation of PIECES_64: the finite-C candidate scan grows with the
    longest piece, so every seed costs the same work."""
    cuts = [0]
    for length in rng.sample(PIECES_64, len(PIECES_64)):
        cuts.append(cuts[-1] + length)
    cuts = [F(c, 64) for c in cuts]
    return [
        _box((max(F(0), lo - overlap),), (min(F(1), hi + overlap),))
        for lo, hi in zip(cuts, cuts[1:])
    ]


def box_cover_2d(rng: random.Random, overlap=F(1, 8)) -> list[dict]:
    """Four overlapping quadrant boxes with seeded jitter on the upper ends."""
    regions = []
    for i in range(2):
        for j in range(2):
            lo = (max(F(0), F(i, 2) - overlap), max(F(0), F(j, 2) - overlap))
            hi = (min(F(1), F(i + 1, 2) + overlap), min(F(1), F(j + 1, 2) + overlap))
            jitter = F(rng.randrange(0, 4), 64)
            hi = (min(F(1), hi[0] + jitter), min(F(1), hi[1] + jitter))
            regions.append(_box(lo, hi))
    return regions


def picks(rng: random.Random, horizon: int, regions: int) -> list[list[int]]:
    """Per stage a seeded subset of region indices; some subsets leave points
    out, so some checks fail with a witness."""
    out = []
    for _ in range(horizon):
        k = rng.choice((regions, regions, regions - 1, regions - 2))
        out.append(sorted(rng.sample(range(regions), k)))
    return out


def grid_space() -> dict:
    axis = [f"{k}/{GRID_DEN}" for k in range(GRID_DEN + 1)]
    return {
        "label": GRID_LABEL,
        "metric": "euclidean",
        "mesh": _q(GRID_MESH),
        "points": [[x, y] for x in axis for y in axis],
    }


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """Write the workload's input files under `workdir` and return its
    invocation list as (label, argv) pairs.  Labels are stable names used
    to key frozen answers."""
    rng = random.Random(f"{workload}:{variant_of(seed)}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "square_demo":
        return [("demo:unit_square_64", ["demo", "--label", "unit_square_64", "--horizon", "6"])]
    if workload == "line_search":
        out = [
            (f"demo:{label}", ["demo", "--label", label, "--horizon", "12"])
            for label in ("unit_interval_1024", "cantor_10")
        ]
        doc = {
            "space": "unit_interval_1024",
            "covers": [interval_cover(rng) for _ in range(FINC_COVERS)],
        }
        path = _write(workdir / "covers.json", doc)
        out.append(("fincspace", ["fincspace", "--space", "unit_interval_1024", "--covers", path]))
        return out
    if workload == "grid_files":
        space = _write(workdir / "space.json", grid_space())
        cover = _write(workdir / "cover.json", {"space": GRID_LABEL, "regions": box_cover_2d(rng)})
        out = [("refine", ["refine", "--space", space, "--cover", cover])]
        for k in range(CHECK_FILES):
            seq = [box_cover_2d(rng) for _ in range(CHECK_HORIZON)]
            covers = _write(workdir / f"covers{k}.json", {"space": GRID_LABEL, "covers": seq})
            chosen = _write(workdir / f"picks{k}.json", {"picks": picks(rng, CHECK_HORIZON, 4)})
            for kind in ("hurewicz", "menger"):
                out.append(
                    (
                        f"check:{kind}:{k}",
                        ["check", "--kind", kind, "--space", space, "--covers", covers, "--picks", chosen],
                    )
                )
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
