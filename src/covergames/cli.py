"""Command-line entry point: one subcommand per pipeline, JSON in, JSON
report out.

Exit codes: 0 all checks passed; 1 a mathematical check failed (the report
carries a concrete witness); 2 input or usage error; 3 an internal invariant
failed (a bug; the report's last check, `invariant`, names it).  Reports
are canonical (sorted keys) and byte-identical across runs except for the
wall_time_s field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import jsonio
from .covers import covers_check, lebesgue_number
from .exact import (
    CheckFailure,
    InputError,
    ResourceError,
    format_rational,
    parse_rational,
)
from .game import (
    adversarial_two_policy,
    hurewicz_selection_check,
    menger_selection_check,
    play_hurewicz_game,
    sc_plus_select,
    transcript_loss_report,
)
from .haver import build_haver_witness, normalize_epsilons
from .netting import (
    decompose_from_hurewicz,
    greedy_net,
    minimal_net_bruteforce,
    select_from_decomposition,
    validate_net,
)
from .registry import builtin_names, builtin_space
from .screenability import (
    FiniteCWitness,
    brick_refinement,
    finite_c_search,
    sc_fin_select,
)
from .space import SampledSpace, default_point_cap, doubling_delta


@dataclass
class RunConfig:
    tail_slack: int = 1
    point_cap: int = field(default_factory=default_point_cap)

    def __post_init__(self):
        if self.point_cap <= 0:
            raise InputError("point_cap must be positive")
        if self.tail_slack < 0:
            raise InputError("tail_slack must be >= 0")

    @staticmethod
    def from_file(path) -> "RunConfig":
        doc = jsonio.load_json(path)
        if not isinstance(doc, dict):
            raise InputError(f"config {path} must hold a JSON object")
        unknown = sorted(set(doc) - {"tail_slack", "point_cap"})
        if unknown:
            raise InputError(
                f"config {path} has unknown key {unknown[0]!r}; known keys: "
                "tail_slack, point_cap"
            )
        for key, value in doc.items():
            if type(value) is not int:
                raise InputError(f"config {key} must be an integer: {value!r}")
        return RunConfig(**doc)


class Report:
    """Command echo, input digests, per-check verdicts with witnesses."""

    def __init__(self, command: str, argv: list[str]):
        self.doc = {
            "command": command,
            "argv": list(argv),
            "inputs": {},
            "checks": [],
            "result": {},
            "wall_time_s": 0.0,
        }
        self._t0 = time.monotonic()

    def add_input(self, name: str, digest: str) -> None:
        self.doc["inputs"][name] = digest

    def check(self, name: str, ok: bool, **details) -> bool:
        entry = {"name": name, "pass": bool(ok)}
        entry.update(details)
        self.doc["checks"].append(entry)
        return ok

    def result(self, **kv) -> None:
        self.doc["result"].update(kv)

    def finish(self, exit_code: int) -> dict:
        self.doc["exit_code"] = exit_code
        self.doc["wall_time_s"] = round(time.monotonic() - self._t0, 6)
        return self.doc

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.doc["checks"])


def _parsed(name: str, spec: str, parse, *args):
    """parse(*args), turning a malformed document into an input error that
    names the input."""
    try:
        return parse(*args)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {name} input {spec}: {exc!r}") from exc


def _load_space(spec: str, cfg: RunConfig, builtin_only: bool) -> SampledSpace:
    if builtin_only or spec in builtin_names():
        space = builtin_space(spec)
    else:
        doc = jsonio.load_json(spec)
        space = _parsed("space", spec, jsonio.space_from_json, doc)
    if space.n > cfg.point_cap:
        raise ResourceError(f"space has {space.n} points, cap is {cfg.point_cap}")
    return space


# input name -> parse(space, doc); the space itself comes first
_PARSERS = {
    "cover": jsonio.cover_from_json,
    "covers": jsonio.coverseq_from_json,
    "chain": jsonio.chain_from_json,
    "selections": jsonio.selections_from_json,
    "picks": lambda space, doc: jsonio.picks_from_json(doc),
}


def _load_inputs(args, cfg: RunConfig, report: Report) -> list:
    """The subcommand's inputs in their declared order.  Each is loaded,
    point-capped (a space), digested into the report, then parsed.  A space
    given by --label must be a built-in one."""
    loaded = []
    for name in COMMANDS[args.cmd][1]:
        spec = getattr(args, name)
        if name in ("space", "label"):
            space = _load_space(spec, cfg, builtin_only=name == "label")
            report.add_input("space", jsonio.space_digest(space))
            loaded.append(space)
            continue
        doc = jsonio.load_json(spec)
        report.add_input(name, jsonio.digest(doc))
        loaded.append(_parsed(name, spec, _PARSERS[name], space, doc))
    return loaded


def _emit(report_doc: dict, out: str | None) -> None:
    text = json.dumps(report_doc, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _families_json(families) -> list:
    return [jsonio.box_family_to_json(fam.family) for fam in families]


# -- subcommand handlers -----------------------------------------------------------


def _cmd_net(args, cfg: RunConfig, report: Report, space) -> None:
    eps = parse_rational(args.epsilon)
    subset = space.subset_all()
    cert = greedy_net(space, subset, eps)
    ok = validate_net(space, cert)
    report.check("net_validates", ok, centers=len(cert.centers))
    if args.oracle:
        if space.n <= 24:
            oracle = minimal_net_bruteforce(space, subset, eps)
            report.check(
                "greedy_at_least_minimal",
                not oracle.exceeds_cap and len(cert.centers) >= oracle.size,
                greedy=len(cert.centers),
                minimal=oracle.size,
            )
        else:
            report.check(
                "greedy_at_least_minimal",
                True,
                skipped="exhaustive net search is capped at 24 points",
            )
    report.result(
        epsilon=format_rational(eps),
        centers=list(cert.centers),
    )


def _cmd_decompose(args, cfg: RunConfig, report: Report, space, selections) -> None:
    horizon = args.horizon or 8
    epsilons = [parse_rational(e) for e in args.epsilons.split(",")] if args.epsilons else []
    dec = decompose_from_hurewicz(space, selections, horizon, epsilons)
    report.check("chain_monotone", True)
    report.check(
        "chain_union_is_sample",
        True,
        stages=[h.count() for h in dec.chain],
    )
    report.check(
        "certificates_validate",
        all(validate_net(space, c) for c in dec.certificates.values()),
        count=len(dec.certificates),
    )
    report.result(
        chain=jsonio.chain_to_json(dec)["chain"],
        tail_start_max=max(dec.tail_start),
        certificates={
            f"{n}@{format_rational(e)}": list(c.centers)
            for (n, e), c in sorted(dec.certificates.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        },
    )


def _cmd_select(args, cfg: RunConfig, report: Report, space, dec, covers) -> None:
    sel = select_from_decomposition(space, dec, covers)
    tail = hurewicz_selection_check(space, covers, sel.picks)
    report.check("tail_condition", tail.ok)
    if tail.ok:
        contract = all(
            tail.tail_start[p] <= dec.tail_start[p] for p in range(space.n)
        )
        report.check("tail_from_chain_entry", contract)
    report.result(picks=jsonio.picks_to_json(sel.picks)["picks"])


def _cmd_refine(args, cfg: RunConfig, report: Report, space, cover) -> None:
    report.check("cover_validates", covers_check(cover).ok)
    families = brick_refinement(space, cover)
    report.check("family_count", True, count=len(families))
    # each family passed the margin sweep at the space mesh when it was built
    report.check("families_margin_disjoint", True, margin=format_rational(space.mesh))
    report.result(
        lebesgue=format_rational(lebesgue_number(cover)),
        families=_families_json(families),
        witnesses=[list(fam.witness) for fam in families],
    )


def _cmd_scfin(args, cfg: RunConfig, report: Report, space, covers) -> None:
    sel = sc_fin_select(space, covers)
    report.check("selection_covers", True)
    report.check("families_margin_disjoint", True, margin=format_rational(space.mesh))
    report.result(
        block_starts=list(sel.block_starts),
        families=_families_json(sel.families),
        witnesses=[list(fam.witness) for fam in sel.families],
    )


def _cmd_fincspace(args, cfg: RunConfig, report: Report, space, covers) -> None:
    res = finite_c_search(space, covers)
    if isinstance(res, FiniteCWitness):
        report.check("witness_found", True, n=res.n)
        report.result(n=res.n, families=_families_json(res.families))
    else:
        report.check("witness_found", False, candidates_refuted=res.candidates_refuted)
        report.result(no_witness_at_horizon=res.horizon)


def _cmd_haver(args, cfg: RunConfig, report: Report, space, dec) -> None:
    raw = [parse_rational(e) for e in args.epsilons.split(",")]
    horizon = args.horizon or len(raw)
    if horizon > len(raw):
        raise InputError(f"--horizon {horizon} exceeds the {len(raw)} epsilons")
    sched = normalize_epsilons(raw[:horizon])
    witness = build_haver_witness(space, dec, sched)
    report.check("families_disjoint", True)
    diam_ok = all(
        d < sched.value(n)
        for n, d in enumerate(witness.diam_bounds, start=1)
    )
    report.check("diameters_below_schedule", diam_ok)
    report.check("claim_replay_full", len(witness.traces) == space.n)
    report.result(
        epsilons=[format_rational(e) for e in sched.values],
        deltas=[format_rational(d) for d in witness.stage_covers.deltas],
        blocks=list(witness.blocks),
        family_sizes=[len(f) for f in witness.families],
        diam_bounds=[format_rational(d) for d in witness.diam_bounds],
        traces=[
            {
                "point": t.point,
                "entry_stage": t.entry_stage,
                "block": list(t.block),
                "stage": t.stage,
            }
            for t in witness.traces[: min(space.n, 32)]
        ],
    )


def _two_policy(spec: str, space: SampledSpace):
    """TWO's policy named by --two: None for the covering policy."""
    if spec == "covering":
        return None
    if not spec.startswith("adversarial:"):
        raise InputError("--two must be 'covering' or 'adversarial:<point>'")
    point = spec.split(":", 1)[1]
    try:
        p = int(point)
    except ValueError:
        p = -1
    if not 0 <= p < space.n:
        raise InputError(
            f"--two adversarial:<point> needs a point index in 0..{space.n - 1}, "
            f"got {point!r}"
        )
    return adversarial_two_policy(p)


def _cmd_game(args, cfg: RunConfig, report: Report, space, covers) -> None:
    policy = _two_policy(args.two, space)
    horizon = args.horizon or covers.horizon
    transcript = play_hurewicz_game(space, covers, policy, horizon)
    loss = transcript_loss_report(transcript, cfg.tail_slack)
    report.check(
        "one_lost", loss.lost_by_one, unresolved=list(loss.unresolved[:32])
    )
    report.result(
        rounds=len(transcript.rounds),
        blocks=list(transcript.blocks),
        moves=[
            {
                "start": r.start_index,
                "one": _families_json(r.one_move),
                "two": [list(ref) for ref in r.two_refs],
                "block": r.block,
            }
            for r in transcript.rounds
        ],
    )


def _cmd_scplus(args, cfg: RunConfig, report: Report, space, covers) -> None:
    res = sc_plus_select(space, covers, cfg.tail_slack)
    report.check("blocks_increasing", all(a < b for a, b in zip(res.blocks, res.blocks[1:])))
    report.check("tail_index_bounded", max(res.tail_index) <= 2, max_tail=max(res.tail_index))
    report.result(
        blocks=list(res.blocks),
        family_sizes=[len(f) for f in res.families],
        tail_index_max=max(res.tail_index),
    )


def _cmd_check(args, cfg: RunConfig, report: Report, space, covers, picks) -> None:
    if args.kind == "menger":
        rep = menger_selection_check(space, covers, picks)
        report.check("menger", rep.ok, failure_point=rep.failure_point)
    elif args.kind == "hurewicz":
        rep = hurewicz_selection_check(space, covers, picks)
        report.check("hurewicz", rep.ok, failures=list(rep.failures))
    else:
        raise InputError("--kind must be menger or hurewicz")


def pipeline_demo(space: SampledSpace, horizon: int, report: Report) -> None:
    """Chain-build, block-selection and small-diameter witness end to end on
    a built-in space: the executable composite of the main implication chain
    up to its externally-cited final step."""
    doubling_delta(horizon)  # a horizon past the cap fails before any work
    # stage 1: chain from the centers of greedy nets at the doubling radii;
    # the selections are dropped once the chain is built
    full = space.subset_all()
    dec = decompose_from_hurewicz(
        space,
        {m: greedy_net(space, full, doubling_delta(m)).centers for m in range(1, horizon + 1)},
        horizon,
        epsilons=[Fraction(1, 2), Fraction(1, 16)],
    )
    report.check("decompose_chain_full", dec.chain[-1].count() == space.n)

    # stage 2+3: epsilon schedule scaled to the space, then the witness.
    # The early terms sit far above the diameter so single-center nets keep
    # the early-stage refinements at honest brick resolution.
    diam = max(space.diameter_upper_bound(), space.mesh)
    raw = [16 * diam * Fraction(15, 32) ** (n - 1) for n in range(1, horizon + 1)]
    sched = normalize_epsilons(raw)
    witness = build_haver_witness(space, dec, sched)
    report.check(
        "haver_witness_validates",
        True,
        blocks=list(witness.blocks),
        family_sizes=[len(f) for f in witness.families],
    )

    # surface the refinement width: the first block of the stage covers
    # splits into screen_dim + 1 honest disjoint families (the block the
    # game built on these covers, counted by the witness)
    families = witness.first_block_families
    report.check(
        "first_block_family_count",
        families == space.screen_dim + 1,
        families=families,
    )

    report.result(
        space=space.label,
        horizon=horizon,
        epsilons=[format_rational(e) for e in sched.values],
        diam_bounds=[format_rational(x) for x in witness.diam_bounds],
    )


def _cmd_demo(args, cfg: RunConfig, report: Report, space) -> None:
    pipeline_demo(space, args.horizon or 6, report)


# -- subcommand table and parser -----------------------------------------------------

_REQUIRED = {"required": True}
_HORIZON = {"type": int, "default": None}

# name -> (handler, inputs in load order, other flags); each input is a
# required --<input> flag, and the handler receives the loaded inputs
COMMANDS = {
    "net": (
        _cmd_net,
        ("space",),
        {"--epsilon": _REQUIRED, "--oracle": {"action": "store_true"}},
    ),
    "decompose": (
        _cmd_decompose,
        ("space", "selections"),
        {"--horizon": _HORIZON, "--epsilons": {"default": ""}},
    ),
    "select": (_cmd_select, ("space", "chain", "covers"), {}),
    "refine": (_cmd_refine, ("space", "cover"), {}),
    "scfin": (_cmd_scfin, ("space", "covers"), {}),
    "fincspace": (_cmd_fincspace, ("space", "covers"), {}),
    "haver": (
        _cmd_haver,
        ("space", "chain"),
        {"--epsilons": _REQUIRED, "--horizon": _HORIZON},
    ),
    "game": (
        _cmd_game,
        ("space", "covers"),
        {"--two": {"default": "covering"}, "--horizon": _HORIZON},
    ),
    "scplus": (_cmd_scplus, ("space", "covers"), {}),
    "check": (_cmd_check, ("space", "covers", "picks"), {"--kind": _REQUIRED}),
    "demo": (_cmd_demo, ("label",), {"--horizon": _HORIZON}),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        help="RunConfig overrides (JSON file)",
    )
    common.add_argument(
        "--out",
        default=argparse.SUPPRESS,
        help="write the JSON report here instead of stdout",
    )
    p = argparse.ArgumentParser(
        prog="covergames",
        description="Open-cover selection constructions on finite metric samples",
        parents=[common],
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (_, inputs, flags) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common])
        for inp in inputs:
            sp.add_argument(f"--{inp}", required=True)
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use (parsing leaves it as it
    was), so that importing the module builds nothing."""
    return build_parser()


def run(argv: list[str]) -> tuple[int, dict]:
    """Execute one subcommand; returns (exit code, report document)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code else 0), {"command": "usage", "exit_code": exc.code}
    report = Report(args.cmd, argv)
    try:
        config_path = getattr(args, "config", None)
        cfg = RunConfig.from_file(config_path) if config_path else RunConfig()
        if getattr(args, "horizon", None) is not None and args.horizon < 1:
            raise InputError(f"--horizon must be >= 1, got {args.horizon}")
        handler = COMMANDS[args.cmd][0]
        handler(args, cfg, report, *_load_inputs(args, cfg, report))
    except CheckFailure as exc:
        report.check("precondition", False, error=str(exc), witness=repr(exc.witness))
        return 1, report.finish(1)
    except InputError as exc:
        report.check("input", False, error=str(exc))
        return 2, report.finish(2)
    except AssertionError as exc:
        report.check("invariant", False, error=str(exc))
        return 3, report.finish(3)
    code = 0 if report.all_passed else 1
    return code, report.finish(code)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
        out = getattr(args, "out", None)
    except SystemExit as exc:
        return 2 if exc.code else 0
    code, doc = run(argv)
    if doc.get("command") != "usage":
        _emit(doc, out)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
