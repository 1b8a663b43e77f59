"""JSON schemas for spaces, covers, chains, selections and picks.

Rationals travel as "numerator/denominator" strings, bit-exact.  Space files
carry {label, metric, mesh, points}; cover files carry {space, regions} with
region shapes "ball", "box" and "co_closed_balls".  Everything emitted is
canonical (sorted keys) so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections import defaultdict
from fractions import Fraction
from itertools import chain, count
from math import lcm
from pathlib import Path

import numpy as np

from .covers import Ball, Box, BoxFamily, CoClosedBalls, Cover, CoverSeq, OpenRegion
from .exact import InputError, format_rational, parse_rational
from .netting import SigmaDecomposition, chain_decomposition
from .space import MAX_DOUBLING_STAGE, SampledSpace, doubling_delta, int_table, point_dim


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def load_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# -- spaces ------------------------------------------------------------------------

# points joined at a time by space_digest: a few small texts per point live
# at once, so that their memory is reused rather than spread
DIGEST_ROWS = 1024


def _rational_texts(table: np.ndarray, den: int, quote=False) -> np.ndarray:
    """The texts of the rationals table / den (JSON string literals when
    quote), an object array of the table's shape; one text per distinct
    integer, as a grid or a box family has few distinct ones."""
    values, inverse = np.unique(table.ravel(), return_inverse=True)
    texts = [format_rational(Fraction(k, den)) for k in values.tolist()]
    if quote:
        texts = list(map(json.dumps, texts))
    return np.array(texts, dtype=object)[inverse.reshape(table.shape)]


def space_to_json(space: SampledSpace) -> dict:
    return {
        "label": space.label,
        "metric": space.metric_kind,
        "mesh": format_rational(space.mesh),
        "points": _rational_texts(space._icoords, space.scale).tolist(),
    }


def space_digest(space: SampledSpace) -> str:
    """digest(space_to_json(space)), hashing the canonical text as it is
    joined, DIGEST_ROWS points at a time, from their quoted texts, with no
    document in between."""
    head = canonical_json(
        {"label": space.label, "metric": space.metric_kind, "mesh": format_rational(space.mesh)}
    )
    # "points" sorts after the other keys
    sha = hashlib.sha256(f'{head[:-1]},"points":['.encode())
    texts = _rational_texts(space._icoords, space.scale, quote=True)
    for k in range(0, space.n, DIGEST_ROWS):
        rows = zip(*texts[k : k + DIGEST_ROWS].T.tolist())
        sha.update(f'{"," if k else ""}[{"],[".join(map(",".join, rows))}]'.encode())
    sha.update(b"]}")
    return sha.hexdigest()[:16]


def space_from_json(doc: dict) -> SampledSpace:
    """The space of a space document, built from its scaled integer table:
    each distinct coordinate text is parsed once.  A points value that is
    not an array of arrays is a TypeError."""
    try:
        points = doc["points"]
        if type(points) is not list or not set(map(type, points)) <= {list}:
            raise TypeError("space points must be an array of coordinate arrays")
        # one pass numbers the distinct coordinates in order; they are read
        # through iterators, so that no list of them joins the document
        codes = defaultdict(count().__next__)
        try:
            flat = np.fromiter(map(codes.__getitem__, chain.from_iterable(points)), np.int64)
            # a text equals no other JSON value, but a bool or a float can hide
            # behind an equal int before it, where only a scan of every type sees it
            texts = set(map(type, codes)) <= {str}
        except TypeError:  # an array or object coordinate, which the scan refuses
            texts = False
        if not texts and not set(map(type, chain.from_iterable(points))) <= {str, int}:
            # a bool, float, null, array or object coordinate: the first
            # one is refused, after any malformed text before it
            for c in chain.from_iterable(points):
                parse_rational(c)
        values = [parse_rational(c) for c in codes]
        scale = lcm(*(v.denominator for v in values))
        metric, mesh = doc["metric"], parse_rational(doc["mesh"])
        label = doc.get("label", "")
    except KeyError as exc:
        raise InputError(f"space JSON missing key {exc}") from exc
    dim = point_dim(metric, map(len, points))
    # int64, or object when a value exceeds it; the codes give way to the
    # table before the table is checked
    flat = int_table([v.numerator * (scale // v.denominator) for v in values]).take(flat)
    return SampledSpace.from_table(scale, flat.reshape(-1, dim), metric, mesh, label=label)


# -- regions and covers --------------------------------------------------------------


def region_to_json(region: OpenRegion) -> dict:
    if isinstance(region, Ball):
        return {
            "shape": "ball",
            "center": region.center,
            "radius": format_rational(region.radius),
        }
    if isinstance(region, Box):
        out = {
            "shape": "box",
            "lo": [format_rational(x) for x in region.lo],
            "hi": [format_rational(x) for x in region.hi],
        }
        if any(region.lo_closed):
            out["lo_closed"] = list(region.lo_closed)
        if any(region.hi_closed):
            out["hi_closed"] = list(region.hi_closed)
        return out
    return {
        "shape": "co_closed_balls",
        "balls": [[c, format_rational(r)] for c, r in region.balls],
    }


def box_family_to_json(family: BoxFamily) -> list:
    """The family's open boxes as region_to_json writes them, from its
    integer ends."""
    d = family.lo.shape[1]
    rows = _rational_texts(np.concatenate([family.lo, family.hi], axis=1), family.den)
    return [{"shape": "box", "lo": r[:d], "hi": r[d:]} for r in rows.tolist()]


def _json_index(value, what: str = "a point index") -> int:
    """A JSON integer (not a bool); anything else is a TypeError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{what} must be an integer, not {value!r}")


def _flag(value) -> bool:
    """A JSON boolean; anything else is a TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"a box end flag must be true or false, not {value!r}")
    return value


def region_from_json(space: SampledSpace, doc: dict) -> OpenRegion:
    shape = doc.get("shape")
    if shape == "ball":
        return Ball(space, _json_index(doc["center"]), parse_rational(doc["radius"]))
    if shape == "box":
        lo = tuple(parse_rational(x) for x in doc["lo"])
        hi = tuple(parse_rational(x) for x in doc["hi"])
        lo_closed = tuple(_flag(b) for b in doc.get("lo_closed", ()))
        hi_closed = tuple(_flag(b) for b in doc.get("hi_closed", ()))
        return Box(space, lo, hi, lo_closed, hi_closed)
    if shape == "co_closed_balls":
        balls = tuple((_json_index(c), parse_rational(r)) for c, r in doc["balls"])
        return CoClosedBalls(space, balls)
    raise InputError(f"unknown region shape {shape!r}")


def cover_to_json(cover: Cover) -> dict:
    return {
        "space": cover.space.label,
        "regions": [region_to_json(r) for r in cover.regions],
    }


def _check_space_ref(space: SampledSpace, ref) -> None:
    """A cover file may name its space (label) or inline it; either must
    agree with the space the caller supplied."""
    if ref is None:
        return
    if isinstance(ref, dict):
        inline = space_from_json(ref)
        if (
            inline.scale != space.scale
            or not np.array_equal(inline._icoords, space._icoords)
            or inline.metric_kind != space.metric_kind
        ):
            raise InputError("inline space disagrees with the supplied space")
        return
    if ref and space.label and ref != space.label:
        raise InputError(
            f"cover file names space {ref!r} but {space.label!r} was given"
        )


def cover_from_json(space: SampledSpace, doc: dict) -> Cover:
    _check_space_ref(space, doc.get("space"))
    return Cover(space, [region_from_json(space, r) for r in doc["regions"]])


def coverseq_to_json(covers: CoverSeq) -> dict:
    return {
        "space": covers.space.label,
        "covers": [
            [region_to_json(r) for r in c.regions] for c in covers.covers
        ],
    }


def coverseq_from_json(space: SampledSpace, doc: dict) -> CoverSeq:
    _check_space_ref(space, doc.get("space"))
    covers = [
        Cover(space, [region_from_json(space, r) for r in regions])
        for regions in doc["covers"]
    ]
    if not covers:
        raise InputError("a cover sequence needs at least one cover")
    return CoverSeq(space, covers)


# -- chains, selections, picks ---------------------------------------------------------


def chain_to_json(dec: SigmaDecomposition) -> dict:
    return {
        "space": dec.space.label,
        "chain": [list(h.indices()) for h in dec.chain],
    }


def chain_from_json(space: SampledSpace, doc: dict) -> SigmaDecomposition:
    chain = [space.subset_from_indices(idx) for idx in doc["chain"]]
    return chain_decomposition(space, chain)


def selections_to_json(selections: dict[int, tuple[int, ...]]) -> dict:
    out = {}
    for m, centers in sorted(selections.items()):
        radius = format_rational(doubling_delta(m))
        out[str(m)] = [{"shape": "ball", "center": c, "radius": radius} for c in centers]
    return {"selections": out}


def selections_from_json(space: SampledSpace, doc: dict) -> dict[int, tuple[int, ...]]:
    """Stage m -> its ball centers.  Stages in 1..MAX_DOUBLING_STAGE hold
    balls of radius (1/2)^(2^m); decompose_from_hurewicz refuses the rest."""
    out = {}
    for key, regions in doc["selections"].items():
        m = int(key)
        if m in out:
            raise InputError(f"selection {m} is given twice")
        want = doubling_delta(m) if 1 <= m <= MAX_DOUBLING_STAGE else None
        centers = []
        for r in regions:
            ball = region_from_json(space, r)
            if not isinstance(ball, Ball):
                raise InputError("selections must consist of balls")
            if want is not None and ball.radius != want:
                raise InputError(
                    f"selection {m} has a ball of radius {ball.radius}, "
                    f"expected (1/2)^(2^{m}) = {want}"
                )
            centers.append(ball.center)
        out[m] = tuple(centers)
    return out


def picks_to_json(picks) -> dict:
    return {"picks": [list(p) for p in picks]}


def picks_from_json(doc: dict) -> list[list[int]]:
    return [[_json_index(i, "a pick") for i in stage] for stage in doc["picks"]]
