"""One workload in one fresh single-threaded process.

    python3 bench/worker.py PLAN.json OUT.json

PLAN holds the invocation list, the seconds to measure and whether to
trace.  The worker runs passes over the list as a closed loop of in-process
`covergames.cli.run(argv)` calls (one client; each call starts when the
previous one returns) until the seconds are used up, at least one pass, and
starts no pass that the previous pass's length says would end past them.
OUT receives per-pass times, per-kind times, answers and, when tracing,
per-pass span statistics.  An untraced worker runs a `RefClock` and gives
times in reference seconds (`ref_s`, per-kind) next to the wall time
(`wall_s`, without the clock's own kernel time); a traced worker gives
wall times only, so the clock's samples do not land in any span.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import answers
from refclock import RefClock


def main(plan_path: str, out_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    from covergames import cli

    tracer = clock = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        clock = RefClock()
        clock.start()
    now = clock.now if clock else time.perf_counter

    passes = []
    t_begin = time.perf_counter()
    while True:
        kinds: dict[str, float] = {}
        got = {}
        t_pass, ref_pass = time.perf_counter(), now()
        kernel_pass = clock.kernel_s if clock else 0.0
        for label, argv in plan["invocations"]:
            t0 = now()
            try:
                code, doc = cli.run(argv)
            except Exception as exc:  # a raising call is a failed attempt
                got[label] = {"raised": f"{type(exc).__name__}: {exc}"}
            else:
                got[label] = answers.extract(code, doc)
            kinds[argv[0]] = kinds.get(argv[0], 0.0) + now() - t0
        ref_s, t_end = now() - ref_pass, time.perf_counter()
        wall_s = t_end - t_pass - ((clock.kernel_s if clock else 0.0) - kernel_pass)
        record = {"ref_s": ref_s if clock else None, "wall_s": wall_s, "kind_s": kinds, "answers": got}
        passes.append(record)
        last = t_end - t_begin + (t_end - t_pass) > plan["seconds"]
        if tracer is not None:
            record["layers"] = tracer.pass_stats()
            if last:
                tracer.save_spans(plan["spans_path"])
            tracer.reset()
        if last:
            break
    if clock:
        clock.stop()
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(out_path).write_text(json.dumps(out))


if __name__ == "__main__":
    main(*sys.argv[1:3])
