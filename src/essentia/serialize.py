"""JSON instance files, report serialization, and the DIMACS import shim.

Every rational in any emitted report is a "p/q" string ("3/1", "9/5"); no
floats appear anywhere.  Instance files are JSON objects

    {"problem": tag, "directed": bool, "n": int,
     "edges": [[u, v], ...], "terminals": [[s, t], ...]}

with 0-indexed vertices; undirected edges are written once with u < v.  An
optional "labels" object (vertex groups named by the generators) is emitted
by `generate` and ignored on input.  The reader checks the JSON shape
only; `Graph` and `Instance` check the pairs, their vertex ids and the
`directed` flag, and their errors carry the offending position.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .detection import DetectionResult
from .driver import DriverReport
from .errors import InputError
from .graphs import Graph, _is_int, _vertex_set
from .lab import GapReport
from .problems import Instance, Problem
from .rounding import RoundingCertificate


def rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(text) -> Fraction:
    """Parse "p/q" or "p" (also plain ints, never bools) into an exact rational."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"expected a rational string, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# instances


def instance_to_dict(inst: Instance, labels: Optional[dict] = None) -> dict:
    out = {
        "problem": inst.problem.value,
        "directed": inst.graph.directed,
        "n": inst.graph.n,
        "edges": [list(e) for e in inst.graph.edges],
        "terminals": [list(t) for t in inst.terminals],
    }
    if labels:
        out["labels"] = {name: list(vs) for name, vs in labels.items()}
    return out


def _expect(d: dict, key: str, kind, where: str):
    if not isinstance(d, dict):
        raise InputError(f"{where}: expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise InputError(f"{where}: missing key {key!r}")
    val = d[key]
    if kind is bool and not isinstance(val, bool):
        raise InputError(f"{where}: {key!r} must be a boolean, got {val!r}")
    if kind is int and not _is_int(val):
        raise InputError(f"{where}: {key!r} must be an integer, got {val!r}")
    if kind is list and not isinstance(val, list):
        raise InputError(f"{where}: {key!r} must be a list, got {val!r}")
    if kind is str and not isinstance(val, str):
        raise InputError(f"{where}: {key!r} must be a string, got {val!r}")
    if kind is dict and not isinstance(val, dict):
        raise InputError(f"{where}: {key!r} must be an object, got {val!r}")
    return val


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise InputError(f"instance: expected a JSON object, got {type(d).__name__}")
    problem = Problem.from_tag(_expect(d, "problem", str, "instance"))
    directed = _expect(d, "directed", bool, "instance")
    n = _expect(d, "n", int, "instance")
    edges = _expect(d, "edges", list, "instance")
    terminals = []  # an absent or null "terminals" means no pairs
    if d.get("terminals") is not None:
        terminals = _expect(d, "terminals", list, "instance")
    return Instance(problem, Graph(n, directed, edges), terminals)


def dumps_instance(inst: Instance, labels: Optional[dict] = None) -> str:
    return json.dumps(instance_to_dict(inst, labels), indent=2)


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    return instance_from_dict(data)


def parse_dimacs_edges(text: str, problem: Problem) -> Instance:
    """DIMACS-style edge list: `p edge N M` then 1-indexed `e U V` lines.

    Covers the terminal-free problems only (vertex cover, P4 hitting,
    feedback vertex set); `e` lines are arcs when the problem is directed.
    """
    if problem.uses_terminals:
        raise InputError("the edge-list format carries no terminal pairs")
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "edge":
                raise InputError(f"line {lineno}: expected 'p edge N M'")
            try:
                n = int(tokens[2])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {tokens[2]!r}") from None
        elif tokens[0] in ("e", "a"):
            if n is None:
                raise InputError(f"line {lineno}: edge before the 'p edge' header")
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: expected '{tokens[0]} U V'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise InputError(f"line {lineno}: bad endpoints {tokens[1:]}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"line {lineno}: endpoint out of range 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise InputError(f"line {lineno}: unrecognized record {tokens[0]!r}")
    if n is None:
        raise InputError("missing 'p edge N M' header line")
    return Instance(problem, Graph(n, problem.directed, edges), ())


# ---------------------------------------------------------------------------
# reports


def detection_result_to_dict(res: DetectionResult) -> dict:
    return {
        "selected": sorted(res.selected),
        "lp_values": {str(v): rat_str(f) for v, f in enumerate(res.lp_values)},
        "threshold": rat_str(res.threshold_used),
    }


def detection_result_from_dict(d: dict, n: int) -> DetectionResult:
    values = []
    raw = _expect(d, "lp_values", dict, "detection result")
    for v in range(n):
        if str(v) not in raw:
            raise InputError(f"detection result: missing lp value for vertex {v}")
        values.append(parse_rat(raw[str(v)]))
    if len(raw) > n:
        extra = min(set(raw) - set(map(str, range(n))))
        raise InputError(f"detection result: lp value for {extra!r}, not a vertex (n={n})")
    selected = _vertex_set(_expect(d, "selected", list, "detection result"), n, "selected")
    threshold = parse_rat(_expect(d, "threshold", object, "detection result"))
    result = DetectionResult(values, threshold)
    if result.selected != selected:
        raise InputError("selected set does not match the value threshold")
    return result


def rounding_certificate_to_dict(cert: RoundingCertificate) -> dict:
    return {
        "factor_bound": rat_str(cert.factor_bound),
        "fractional_value": rat_str(cert.fractional_value),
        "integral_set": sorted(cert.integral_set),
        "witness_sets": {k: list(v) for k, v in cert.witness_sets.items()},
        "pinned_vertex": cert.pinned_vertex,
    }


def rounding_certificate_fields(
    d: dict,
) -> tuple[Fraction, Fraction, frozenset[int], int]:
    """Parse the bound-relevant fields of an (untrusted) certificate dict."""
    return (
        parse_rat(_expect(d, "factor_bound", str, "certificate")),
        parse_rat(_expect(d, "fractional_value", str, "certificate")),
        _vertex_set(_expect(d, "integral_set", list, "certificate"), None, "integral_set"),
        _expect(d, "pinned_vertex", int, "certificate"),
    )


def gap_report_to_dict(report: GapReport) -> dict:
    return {
        "label": report.label,
        "n": report.n,
        "pinned": report.pinned_vertex,
        "fractional": rat_str(report.fractional),
        "integral": report.integral,
        "ratio": None if report.ratio is None else rat_str(report.ratio),
    }


def driver_report_to_dict(report: DriverReport) -> dict:
    return {
        "opt": report.opt,
        "solution": sorted(report.solution),
        "detected": sorted(report.detected),
        "residual_budget": report.residual_budget,
        "iterations": [list(it) for it in report.iterations],
    }
