"""Command-line surface: solve, detect, reduce, gap, generate, convert, verify.

Reports go to stdout as JSON with exact "p/q" rationals.  Exit codes: 0 on
success, 1 on input errors, 2 when a resource cap (cut budget, search nodes,
size cap, a --jobs worker count below 1, memory) is hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import lab, serialize
from .detection import DEFAULT_SIZE_CAP, DetectionResult, detect, essential_vertices_exact
from .driver import solve_with_detection
from .errors import EssentiaError, InputError, ResourceCapError
from .exact import DEFAULT_NODE_CAP, SolveBudget, solve_exact
from .problems import Instance, Problem, is_solution
from .serialize import parse_rat, rat_str


def _read_text(path: str) -> str:
    try:
        if path == "-":  # UTF-8 like a file, whatever the locale
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_instance(path: str, fmt: str, problem_tag: Optional[str]) -> Instance:
    text = _read_text(path)
    if fmt == "json":
        return serialize.loads_instance(text)
    if fmt == "dimacs-edges":
        if not problem_tag:
            raise InputError("--format dimacs-edges requires --problem")
        return serialize.parse_dimacs_edges(text, Problem.from_tag(problem_tag))
    raise InputError(f"unknown format {fmt!r}")


def _check_jobs(jobs: int) -> None:
    """Refuse a --jobs value below 1; `lp_values` clamps large ones."""
    if jobs < 1:
        raise ResourceCapError(f"--jobs must be at least 1, got {jobs}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _parse_vertex_list(raw: Optional[str]) -> frozenset[int]:
    if not raw:
        return frozenset()
    try:
        return frozenset(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InputError(f"bad vertex list {raw!r}: {exc}") from None


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance, args.format, args.problem)
    budget = SolveBudget(
        max_k=args.max_k,
        forbidden=_parse_vertex_list(args.forbid),
        node_cap=args.node_cap,
    )
    solution = solve_exact(inst, budget)
    if solution is None:
        _emit({"opt": None, "solution": None})
    else:
        _emit({"opt": len(solution), "solution": sorted(solution)})
    return 0


def _cmd_detect(args) -> int:
    inst = _load_instance(args.instance, args.format, args.problem)
    if (args.k is None) == (args.c is None):
        raise InputError("pass exactly one of --k (LP detection) or --c (exact ground truth)")
    if args.k is not None:
        result = detect(inst, args.k, jobs=args.jobs)
        _emit(serialize.detection_result_to_dict(result))
    else:
        essential = essential_vertices_exact(
            inst, parse_rat(args.c), size_cap=args.size_cap, node_cap=args.node_cap
        )
        _emit({"essential": sorted(essential), "c": rat_str(parse_rat(args.c))})
    return 0


def _cmd_reduce(args) -> int:
    inst = _load_instance(args.instance, args.format, args.problem)
    report = solve_with_detection(inst, jobs=args.jobs, node_cap=args.node_cap)
    _emit(serialize.driver_report_to_dict(report))
    return 0


def _cmd_gap(args) -> int:
    inst = _load_instance(args.instance, args.format, args.problem)
    report = lab.measure_gap(
        inst, pinned=args.pin, node_cap=args.node_cap, label=args.id
    )
    if args.csv:
        sys.stdout.write(lab.gap_csv_rows([report]))
    else:
        _emit(serialize.gap_report_to_dict(report))
    return 0


def _cmd_generate(args) -> int:
    family = args.family
    if family == "star":
        labeled = lab.gen_star_multicut(args.m)
    elif family == "matching-apex":
        labeled = lab.gen_matching_apex(args.m)
    elif family == "gnp":
        labeled = lab.LabeledInstance(lab.gen_gnp(args.n, args.seed), {})
    elif family in ("dfvs-gadget", "vc-gadget"):
        if not args.base:
            raise InputError(f"--base is required for {family}")
        base = _load_instance(args.base, args.format, args.problem)
        eps = parse_rat(args.eps)
        if family == "dfvs-gadget":
            labeled = lab.gen_dfvs_gadget(base, eps)
        else:
            labeled = lab.gen_vc_gadget(base, eps)
    else:
        raise InputError(f"unknown family {family!r}")
    print(serialize.dumps_instance(labeled.instance, labeled.labels))
    return 0


def _cmd_convert(args) -> int:
    inst = _load_instance(args.instance, args.format, args.problem)
    converted = lab.convert(inst, Problem.from_tag(args.to))
    print(serialize.dumps_instance(converted))
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance, args.format, args.problem)
    try:
        cert_data = json.loads(_read_text(args.certificate))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from None
    checks: dict[str, bool] = {}
    if args.kind == "rounding":
        # untrusted input: check the raw fields rather than constructing the
        # certificate type, whose invariants hold by fiat
        factor, value, integral, pinned = serialize.rounding_certificate_fields(cert_data)
        checks["pinned_vertex_excluded"] = pinned not in integral
        checks["factor_bound_holds"] = len(integral) <= factor * value
        checks["integral_set_is_solution"] = is_solution(inst, integral)
        checks["pinned_is_singleton_solution"] = is_solution(inst, {pinned})
    elif args.kind == "detection":
        if args.k is None:
            raise InputError("verify --kind detection requires --k")
        claimed = serialize.detection_result_from_dict(cert_data, inst.n)
        recomputed = detect(inst, args.k, jobs=args.jobs)
        checks["lp_values_match"] = claimed.lp_values == recomputed.lp_values
        checks["selected_matches_threshold"] = (
            claimed.selected == DetectionResult(claimed.lp_values, Fraction(args.k)).selected
        )
        checks["selected_matches_recomputation"] = claimed.selected == recomputed.selected
    else:
        raise InputError(f"unknown certificate kind {args.kind!r}")
    ok = all(checks.values())
    _emit({"ok": ok, "checks": checks})
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essentia",
        description="LP-based essential-vertex detection and exact solving "
        "for vertex hitting set problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_instance=True, node_cap=False, jobs=False):
        if with_instance:
            p.add_argument("instance", help="instance file (JSON; '-' for stdin)")
        p.add_argument("--format", choices=["json", "dimacs-edges"], default="json")
        p.add_argument("--problem", help="problem tag for --format dimacs-edges")
        if node_cap:
            p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
        if jobs:
            p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("solve", help="exact minimum solution")
    add_common(p, node_cap=True)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--forbid", help="comma-separated vertices excluded from the solution")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("detect", help="per-vertex LP detection or exact essential set")
    add_common(p, node_cap=True, jobs=True)
    p.add_argument("--k", type=int, default=None, help="guess for the optimum size")
    p.add_argument("--c", default=None, help='essentiality factor, e.g. "7/2" (exact mode)')
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("reduce", help="optimal solve via detection-driven search reduction")
    add_common(p, node_cap=True, jobs=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gap", help="fractional vs integral optimum")
    add_common(p, node_cap=True)
    p.add_argument("--pin", type=int, default=None)
    p.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")
    p.add_argument("--id", default="", help="label for the CSV row")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("generate", help="emit a generated instance as JSON")
    add_common(p, with_instance=False)
    p.add_argument("--family", required=True,
                   choices=["star", "matching-apex", "gnp", "dfvs-gadget", "vc-gadget"])
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", default="1", help='gadget strength, e.g. "1/2"')
    p.add_argument("--base", help="base instance file for the gadget families")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("convert", help="convert between problem encodings")
    add_common(p)
    p.add_argument("--to", required=True, help="target problem tag")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("verify", help="replay a certificate against its invariants")
    add_common(p, jobs=True)
    p.add_argument("certificate", help="certificate file (JSON)")
    p.add_argument("--kind", required=True, choices=["rounding", "detection"])
    p.add_argument("--k", type=int, default=None, help="threshold for detection replay")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if "jobs" in args:
            _check_jobs(args.jobs)
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 2
    except EssentiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
