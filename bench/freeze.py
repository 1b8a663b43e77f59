"""Freeze the answers of every workload variant into frozen.json.

    python3 bench/freeze.py

Run from the root of a checkout whose answers are known good.  Each
(workload, variant) runs once in one of two worker processes.  The demos
read no generated file, so their answers do not depend on the variant:
they run in variant 0 only and are stored once under "fixed".  The other
answers are stored under their workload and variant.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import answers  # noqa: E402
import workloads  # noqa: E402


def fixed(label: str) -> bool:
    return label.startswith("demo:")


def _answers(task) -> tuple[str, int, dict]:
    from covergames.cli import run

    workload, variant = task
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        out = {}
        for label, argv in workloads.build(workload, variant, Path(tmp)):
            if variant == 0 or not fixed(label):
                out[label] = answers.extract(*run(argv))
    return workload, variant, out


def main() -> None:
    tasks = [(w, v) for w in workloads.WORKLOADS for v in range(workloads.VARIANTS)]
    frozen: dict = {"fixed": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for workload, variant, out in pool.imap_unordered(_answers, tasks):
            for label, answer in out.items():
                if fixed(label):
                    frozen["fixed"][label] = answer
                else:
                    frozen.setdefault(workload, {}).setdefault(str(variant), {})[label] = answer
            print(f"froze {workload} variant {variant}", flush=True)
    (HERE / "frozen.json").write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
