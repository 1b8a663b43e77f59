"""Benchmark: time to verified CLI reports on three seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's input files
from the seed, then runs the workload in a fresh single-threaded worker
process as a closed loop of in-process `covergames.cli.run(argv)` calls for
about S seconds (see worker.py).  setup_s is the median time for a fresh
interpreter to import the package, over a burst of them before the worker
and another after it.  Every answer of every pass is compared key by key
with the answers frozen in frozen.json; `failed` counts the calls that
raised or differ.

pass_s and setup_s are in reference seconds (refclock.py): wall time scaled
by the host's speed, sampled with a fixed kernel while the work runs, so
that the host's swings in speed do not read as changes in the program.
The wall times are kept as pass_wall_s and setup_wall_s.

With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it carries the per-layer metrics: an
untraced worker and then a traced worker (tracing.py) share the seconds,
and trace.overhead_ratio is the traced pass wall time over the untraced
one.  That counts repeat exactly is checked across runs of one seed by
`spread.py --trace 1`.  A full record, with the machine it ran on, goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import answers
import workloads
from refclock import kernel_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BURST = 9  # fresh interpreters timed before the workers, and again after
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
COUNT_STATS = ("calls", "distinct", "raised")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(wall, reference) seconds from spawning a fresh interpreter until it
    has imported the CLI module, one pair per repeat.  The child reports the
    (system-wide monotonic) clock itself, so the parent's wait for its exit
    is not counted.  The host's speed is sampled just before the spawn and
    just after the exit."""
    times = []
    for _ in range(SETUP_BURST):
        before = kernel_scale()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import covergames.cli, time; print(time.perf_counter())"],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        wall = float(proc.stdout) - t0
        times.append((wall, wall * (before + kernel_scale()) / 2))
    return times


def run_worker(invocations, seconds: float, trace: bool, workdir: Path, env: dict) -> dict:
    tag = "traced" if trace else "plain"
    plan = workdir / f"plan-{tag}.json"
    out = workdir / f"worker-{tag}.json"
    plan.write_text(
        json.dumps(
            {
                "invocations": invocations,
                "seconds": seconds,
                "trace": trace,
                "spans_path": str(workdir / "spans.npz"),
            }
        )
    )
    out.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan), str(out)],
        env=env,
        check=True,
    )
    return json.loads(out.read_text())


def kind_medians(passes: list[dict]) -> dict[str, float]:
    kinds = passes[0]["kind_s"]
    return {k: statistics.median(p["kind_s"][k] for p in passes) for k in kinds}


def layer_metrics(names, traced: list[dict], untraced: dict, plain_kinds: dict):
    """Per-layer values from the traced passes: counts from the first pass,
    times as medians over passes; the untraced figures in `untraced` and
    `plain_kinds`.  Returns (values, notes)."""
    spans = [p["layers"]["spans"] for p in traced]
    tallies = [p["layers"]["tallies"] for p in traced]
    values, notes = {}, []
    for name in names:
        if name in untraced:
            values[name] = untraced[name]
        elif name == "trace.overhead_ratio":
            traced_pass = statistics.median(p["wall_s"] for p in traced)
            values[name] = traced_pass / untraced["pass_wall_s"]
        elif name.endswith("_s") and name[:-2] in workloads.KINDS:
            values[name] = plain_kinds.get(name[:-2], 0.0)
            if name[:-2] not in plain_kinds:
                notes.append(f"{name}: no {name[:-2]} reports in this workload")
        elif name in tallies[0]:
            values[name] = tallies[0][name]
        elif name.endswith(".ok_ratio"):
            span = name[: -len(".ok_ratio")]
            calls = spans[0].get(span, {}).get("calls", 0)
            values[name] = tallies[0][f"{span}.ok"] / calls if calls else 0.0
            if not calls:
                notes.append(f"{name}: {span} not called in this workload")
        else:
            span, stat = name.rsplit(".", 1)
            if span not in spans[0]:
                notes.append(f"{name}: {span} not called in this workload")
            if stat in COUNT_STATS:
                values[name] = spans[0].get(span, {}).get(stat, 0)
            else:
                values[name] = statistics.median(s.get(span, {}).get(stat, 0.0) for s in spans)
    for span, st in spans[0].items():
        if st["raised"]:
            notes.append(f"{span}.raised {st['raised']}")
    return values, notes


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_pinned": {var: "1" for var in THREAD_VARS},
    }


def spread(values: list[float]) -> float | None:
    """Distance between first and third quartile over the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "covergames" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'covergames'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    frozen_all = json.loads((HERE / "frozen.json").read_text())
    variant = workloads.variant_of(args.seed)
    frozen = {**frozen_all["fixed"], **frozen_all.get(args.workload, {}).get(str(variant), {})}

    workdir = HERE / "out" / f"{args.workload}-t{args.trace}"
    invocations = workloads.build(args.workload, args.seed, workdir)
    env = child_env()
    setup_times = measure_setup(env)

    if args.trace:
        plain = run_worker(invocations, args.seconds / 2, False, workdir, env)
        traced = run_worker(invocations, args.seconds / 2, True, workdir, env)
        runs = plain["passes"] + traced["passes"]
    else:
        plain = run_worker(invocations, args.seconds, False, workdir, env)
        runs = plain["passes"]
    setup_times += measure_setup(env)
    attempted, failed, notes = answers.count_failures([p["answers"] for p in runs], frozen)
    kinds = kind_medians(plain["passes"])
    untraced = {
        "pass_s": statistics.median(p["ref_s"] for p in plain["passes"]),
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "peak_rss_mb": plain["peak_rss_mb"],
        "pass_wall_s": statistics.median(p["wall_s"] for p in plain["passes"]),
        "setup_wall_s": statistics.median(wall for wall, _ in setup_times),
    }

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, layer_notes = layer_metrics(names, traced["passes"], untraced, kinds)
        notes += layer_notes
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = untraced
    correct = failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "environment": environment(),
        "invocations": [label for label, _ in invocations],
        "setup_s_by_repeat": [ref for _, ref in setup_times],
        "setup_wall_s_by_repeat": [wall for wall, _ in setup_times],
        "pass_s_by_pass": [p["ref_s"] for p in plain["passes"]],
        "pass_wall_s_by_pass": [p["wall_s"] for p in plain["passes"]],
        "pass_s_spread": spread([p["ref_s"] for p in plain["passes"]]),
        "pass_wall_s_spread": spread([p["wall_s"] for p in plain["passes"]]),
        "kind_s": kinds,
        "fail_ratio": failed / attempted,
        "notes": notes,
        "metrics": {n: values[n] for n in names},
    }
    if args.trace:
        record["layers_by_pass"] = [p["layers"] for p in traced["passes"]]
    (HERE / "out" / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload {args.workload} seed {args.seed} (variant {variant}), "
          f"{len(plain['passes'])} untraced passes")
    print(f"  {'fail_ratio':<44} {failed / attempted:.4f} 1  ({failed}/{attempted})")
    if not args.trace:  # with --trace 1 these are per-layer metrics
        for kind, t in kinds.items():
            print(f"  {kind + '_s':<44} {t:.4f} s")
        for name in ("pass_wall_s", "setup_wall_s"):
            print(f"  {name:<44} {untraced[name]:.4f} s")
    for name in names:
        print(f"  {name:<44} {values[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  note: {note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
