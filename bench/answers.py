"""Answer fields of CLI reports, and their comparison with frozen answers.

An answer is a flat map from a report path to a JSON value: the exit code,
the command's answer fields under ``result.``, and every field of every
check entry under ``checks.<name>.``.  Values whose canonical JSON is long
are kept as a digest.  Comparison is key by key over the frozen paths only,
so reports that gain fields later do not count as failures.
"""

from __future__ import annotations

import hashlib
import json

RESULT_KEYS = {
    "demo": ("diam_bounds", "epsilons"),
    "refine": ("lebesgue", "families", "witnesses"),
    "fincspace": ("n", "families"),
    "check": (),
}
DIGEST_OVER = 200  # characters of canonical JSON


def compact(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    if len(text) > DIGEST_OVER:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return json.loads(text)


def extract(code: int, doc: dict) -> dict:
    out = {"exit_code": code}
    for key in RESULT_KEYS.get(doc.get("command"), ()):
        out[f"result.{key}"] = compact(doc.get("result", {}).get(key))
    for check in doc.get("checks", ()):
        for key, value in check.items():
            if key != "name":
                out[f"checks.{check['name']}.{key}"] = compact(value)
    return out


def mismatches(frozen: dict, got: dict) -> list[str]:
    """Frozen paths whose value differs in (or is missing from) `got`."""
    missing = object()
    return [path for path, want in frozen.items() if got.get(path, missing) != want]


def count_failures(passes: list[dict], frozen: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every invocation of every pass.

    Each pass maps invocation label -> answer, or -> {"raised": text} when
    the call raised.  A call fails when it raised, has no frozen answer, or
    differs from its frozen answer on any frozen path.
    """
    attempted = failed = 0
    notes = []
    for k, answers in enumerate(passes):
        for label, got in answers.items():
            attempted += 1
            if "raised" in got:
                bad = [f"raised {got['raised']}"]
            elif label not in frozen:
                bad = ["no frozen answer"]
            else:
                bad = mismatches(frozen[label], got)
            if bad:
                failed += 1
                notes.append(f"pass {k} {label}: {', '.join(bad)}")
    return attempted, failed, notes
