"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1 2 3 ... [--trace 0|1]

For every workload, runs `bench/run.py` once per seed (sequentially) and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median (`statistics.quantiles(n=4)`), next
to the metric's bound.  With --trace 1, runs sharing a seed must repeat
every count metric exactly; a differing count is reported.  The summary
goes to bench/out/spread-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment, spread  # noqa: E402

COUNT_SUFFIXES = (".calls", ".distinct", ".raised", "game.rounds")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n")
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= last["correct"] and last["failed"] == 0
            runs.append({"seed": seed, **last})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()
            ), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds.get(name),
                "values": values,
            }
            if args.trace:
                by_seed = {}
                for r, v in zip(runs, values):
                    by_seed.setdefault(r["seed"], set()).add(v)
                if name.endswith(COUNT_SUFFIXES) and any(len(s) > 1 for s in by_seed.values()):
                    ok = False
                    print(f"  count {name} differs between runs of one seed: {by_seed}")
        report["workloads"][workload] = {"seeds": args.seeds, "metrics": summary}
        for name, s in summary.items():
            if s["bound"] is not None or not args.trace:
                print(f"  {name:<28} median {s['median']:.5g}  spread {s['spread']:.4f}"
                      f"  bound {s['bound']}")
    out = HERE / "out" / f"spread-t{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("all runs correct" if ok else "SOME RUNS INCORRECT OR COUNTS DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
