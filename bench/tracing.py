"""Outside-in tracing of the covergames modules.

`Tracer.install()` replaces each public function of every covergames module
with a wrapper, in every covergames namespace that imported it by name, and
wraps the public methods and the constructor of `SampledSpace`,
`SubsetHandle` and `DisjointFamily` on the class.  Nothing under `src/`
changes.  Functions bound before installation (such as default argument
values) keep calling the original.

Span names are `<module>.<function>`; methods are named `<module>.<method>`
and constructors `<module>.<Class>`.  Each call appends one span (name,
parent span, start, end) to in-memory arrays, so a span's self time is its
duration minus its children's durations, exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

import numpy as np

WRAPPED_CLASSES = {"space": ("SampledSpace", "SubsetHandle"), "covers": ("DisjointFamily",)}


def _region_key(region) -> tuple:
    """Value identity of a region, without keeping its space alive."""
    fields = tuple(
        getattr(region, f.name) for f in dataclasses.fields(region) if f.name != "space"
    )
    return (type(region).__name__, region.space.label) + fields


# distinct arguments are counted per pass for these spans only
DISTINCT = {
    "space.dist_sq_row": lambda args: (args[0].label, args[1]),
    "covers.region_mask": lambda args: _region_key(args[0]),
}
# per-span tallies of the returned value: tally name -> (span, value of result)
TALLIES = {
    "covers.refines_check.ok": ("covers.refines_check", lambda r: int(r.ok)),
    "game.rounds": ("game.play_hurewicz_game", lambda r: len(r.rounds)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._distinct_of: dict[int, object] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new pass: forget spans, distinct sets and tallies."""
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 unless the same span is already open
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open = [0] * len(self.names)
        self.raised = [0] * len(self.names)
        self.distinct = {nid: set() for nid in self._distinct_of}
        self.tallies = {tally: 0 for tally in TALLIES}

    def install(self) -> None:
        """Wrap every public covergames function and the listed classes'
        methods."""
        import covergames

        modules = [covergames] + [
            importlib.import_module(f"covergames.{m.name}")
            for m in pkgutil.iter_modules(covergames.__path__)
        ]
        replace = {}  # original function -> wrapper
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    replace[fn] = self._wrap(f"{short}.{attr}", fn)
            for cls_name in WRAPPED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        name = f"{short}.{cls_name}" if attr == "__init__" else f"{short}.{attr}"
                        setattr(cls, attr, self._wrap(name, fn))
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in replace:
                    setattr(mod, attr, replace[fn])
        self.reset()

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        key_of = DISTINCT.get(span)
        if key_of is not None:
            self._distinct_of[nid] = key_of
        tallies = [(t, value) for t, (s, value) in TALLIES.items() if s == span]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.outer.append(tracer._open[nid] == 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._open[nid] += 1
            stack.append(idx)
            if key_of is not None:
                tracer.distinct[nid].add(key_of(args))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._open[nid] -= 1
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            for tally, value in tallies:
                tracer.tallies[tally] += value(result)
            return result

        return functools.wraps(fn)(wrapper)

    def pass_stats(self) -> dict:
        """Per span name with at least one call: calls, inclusive seconds
        (outermost calls only), self seconds, raised, distinct; plus the
        tallies."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        incl = np.bincount(name, weights=dur * np.frombuffer(self.outer, dtype=np.int8), minlength=k)
        calls = np.bincount(name, minlength=k)
        spans = {}
        for nid, span in enumerate(self.names):
            if calls[nid] == 0:
                continue
            spans[span] = {
                "calls": int(calls[nid]),
                "s": float(incl[nid]),
                "self_s": float(self_s[nid]),
                "raised": self.raised[nid],
            }
            if nid in self.distinct:
                spans[span]["distinct"] = len(self.distinct[nid])
        return {"spans": spans, "tallies": dict(self.tallies), "span_count": len(dur)}

    def save_spans(self, path) -> None:
        """Write the current pass's spans (compressed numpy arrays)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
