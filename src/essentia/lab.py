"""Instance generators, problem converters, and gap measurement.

The tight families here realise the extremal ratios of the vertex-avoiding
relaxations: a star with all leaf pairs as terminals (multicut, pinned-center
ratio 2(m-1)/m) and a perfect matching with an apex vertex touching one
endpoint of each edge (P4 hitting, pinned-apex ratio 2(m-1)/m).  The two
gadget builders embed an arbitrary base instance so that the base's optimum
dominates which vertices become unavoidable; their structural claims are
checked empirically at small scale by the test suite.  `measure_gap`
reports the exact fractional and integral optima of one instance, pinned
or not, and `gen_gnp` draws the seeded random graphs of the standard-LP
gap experiment in the test suite.  Every generator checks the vertex count
of the graph it builds against `graphs.MAX_VERTICES` before building it.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InputError
from .exact import DEFAULT_NODE_CAP, SolveBudget, opt_value
from .graphs import Graph, _check_vertex_count, _is_int, _rational
from .lp import solve
from .problems import Instance, Problem


@dataclass(frozen=True, eq=False)
class LabeledInstance:
    """A generated instance plus named vertex groups (center, apex, P, Q, ...)."""

    instance: Instance
    labels: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class GapReport:
    """Exact fractional and integral optima of one instance, and their ratio."""

    fractional: Fraction
    integral: Optional[int]
    ratio: Optional[Fraction]
    pinned_vertex: Optional[int]
    n: int
    label: str = ""


def gen_star_multicut(m: int) -> LabeledInstance:
    """Star with m leaves; every leaf pair is a terminal pair; center is 0."""
    if not _is_int(m) or m < 2:
        raise InputError(f"star generator needs an int m >= 2 leaves, got {m!r}")
    _check_vertex_count(m + 1)
    g = Graph(m + 1, False, [(0, i) for i in range(1, m + 1)])
    terms = tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))
    inst = Instance(Problem.VERTEX_MULTICUT, g, terms)
    return LabeledInstance(inst, {"center": (0,), "leaves": tuple(range(1, m + 1))})


def gen_matching_apex(m: int) -> LabeledInstance:
    """m disjoint edges plus an apex adjacent to one endpoint of each; apex is 0.

    Vertex 2i-1 is the apex-side endpoint of edge i, vertex 2i the far one.
    The apex alone hits every induced P4.
    """
    if not _is_int(m) or m < 2:
        raise InputError(f"matching generator needs an int m >= 2 edges, got {m!r}")
    _check_vertex_count(2 * m + 1)
    edges = []
    for i in range(1, m + 1):
        a, b = 2 * i - 1, 2 * i
        edges.append((a, b))
        edges.append((0, a))
    inst = Instance(Problem.COGRAPH_DELETION, Graph(2 * m + 1, False, edges))
    labels = {
        "apex": (0,),
        "near": tuple(2 * i - 1 for i in range(1, m + 1)),
        "far": tuple(2 * i for i in range(1, m + 1)),
    }
    return LabeledInstance(inst, labels)


def _padded_copies(g: Graph, multiplier: int) -> list[tuple[int, int]]:
    return [
        (j * g.n + a, j * g.n + b) for j in range(multiplier) for a, b in g.edges
    ]


def _pad_multiplier(n: int, c: Fraction) -> int:
    """Smallest copy count t making c * t * n an integer, for a rational c >= 0.

    With c * n = p/q in lowest terms, t * p/q is an integer exactly when q
    divides t, so t = q.  Counts above 8n + 8 are refused.
    """
    t = (c * n).denominator
    if t > 8 * n + 8:
        raise InputError("no small copy count satisfies the divisibility requirement")
    return t


def gen_dfvs_gadget(base: Instance, eps: Fraction) -> LabeledInstance:
    """Cycle-hitting gadget around a base instance, with exact eps in (0, 1].

    The base (padded by disjoint copies until (1 - eps/2) * n is integral)
    becomes the group P; two new groups Q_in and Q_out of that size m are
    wired so that (p, q_i, q_i') is a directed triangle for every p in P and
    every i.  P hits every cycle, and any solution sparing some p must pay
    for all m of the (q_i, q_i') arcs instead.
    """
    if base.problem is not Problem.DFVS:
        raise InputError(f"gadget base must be a feedback vertex set instance, got {base.problem.value}")
    eps = _rational(eps, "eps")
    if not 0 < eps <= 1:
        raise InputError(f"eps must lie in (0, 1], got {eps}")
    c = 1 - eps / 2
    t = _pad_multiplier(base.n, c)
    np = t * base.n
    m = int(c * np)
    _check_vertex_count(np + 2 * m)
    arcs = _padded_copies(base.graph, t)
    q_in = tuple(range(np, np + m))
    q_out = tuple(range(np + m, np + 2 * m))
    for i in range(m):
        arcs.append((q_in[i], q_out[i]))
    for p in range(np):
        for i in range(m):
            arcs.append((p, q_in[i]))
            arcs.append((q_out[i], p))
    inst = Instance(Problem.DFVS, Graph(np + 2 * m, True, arcs))
    labels = {
        "P": tuple(range(np)),
        "Q_in": q_in,
        "Q_out": q_out,
        "Q": q_in + q_out,
    }
    return LabeledInstance(inst, labels)


def gen_vc_gadget(base: Instance, eps: Fraction) -> LabeledInstance:
    """Edge-covering gadget around a base instance, with exact eps in (0, 1/2].

    The padded base becomes P; a fresh independent set Q of size
    (1/2 - eps/2) * |P| is joined completely to P.  P covers every edge, and
    a solution sparing some p must take all of Q.
    """
    if base.problem is not Problem.VERTEX_COVER:
        raise InputError(f"gadget base must be a vertex cover instance, got {base.problem.value}")
    eps = _rational(eps, "eps")
    if not 0 < eps <= Fraction(1, 2):
        raise InputError(f"eps must lie in (0, 1/2], got {eps}")
    c = Fraction(1, 2) - eps / 2
    t = _pad_multiplier(base.n, c)
    np = t * base.n
    m = int(c * np)
    _check_vertex_count(np + m)
    edges = _padded_copies(base.graph, t)
    q = tuple(range(np, np + m))
    for p in range(np):
        for qq in q:
            edges.append((p, qq))
    inst = Instance(Problem.VERTEX_COVER, Graph(np + m, False, edges))
    return LabeledInstance(inst, {"P": tuple(range(np)), "Q": q})


def convert(inst: Instance, target: Problem) -> Instance:
    """Solution-preserving conversion into a multicut problem.

    Feedback vertex set becomes directed multicut with a terminal pair
    (head, tail) per arc; vertex cover becomes multicut with a terminal pair
    per edge.  Deleting a set breaks all cycles (covers all edges) exactly
    when it cuts all those pairs.
    """
    if not isinstance(target, Problem):
        raise InputError(f"conversion target must be a Problem, got {target!r}")
    pair = (inst.problem, target)
    if pair == (Problem.DFVS, Problem.DIRECTED_VERTEX_MULTICUT):
        terms = tuple((b, a) for a, b in inst.graph.edges)
        return Instance(Problem.DIRECTED_VERTEX_MULTICUT, inst.graph, terms)
    if pair == (Problem.VERTEX_COVER, Problem.VERTEX_MULTICUT):
        terms = tuple((a, b) for a, b in inst.graph.edges)
        return Instance(Problem.VERTEX_MULTICUT, inst.graph, terms)
    raise InputError(
        f"unsupported conversion {inst.problem.value} -> {target.value}"
    )


def gen_gnp(n: int, seed: int) -> Instance:
    """Seeded Erdos-Renyi graph with edge probability 1/2, as a P4-hitting instance."""
    if not _is_int(n) or n < 4:
        raise InputError(f"random graph generator needs an int n >= 4, got {n!r}")
    _check_vertex_count(n)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Instance(Problem.COGRAPH_DELETION, Graph(n, False, edges))


def measure_gap(
    inst: Instance,
    pinned: Optional[int] = None,
    node_cap: int = DEFAULT_NODE_CAP,
    label: str = "",
) -> GapReport:
    """Exact fractional optimum, integral optimum, and their ratio.

    With a pinned vertex the fractional side pins it to 0 and the integral
    side forbids it; ratio is absent when the fractional optimum is 0.
    """
    SolveBudget(node_cap=node_cap)  # refuses a bad cap before the LP runs
    fractional = solve(inst, pinned).value
    integral = opt_value(inst, node_cap, () if pinned is None else {pinned})
    ratio = None
    if integral is not None and fractional > 0:
        ratio = Fraction(integral) / fractional
    return GapReport(
        fractional=fractional,
        integral=integral,
        ratio=ratio,
        pinned_vertex=pinned,
        n=inst.n,
        label=label,
    )


def gap_csv_rows(reports: Iterable[GapReport]) -> str:
    """CSV serialization of gap reports: id, n, fractional, integral, ratio."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "n", "fractional", "integral", "ratio"])
    for r in reports:
        frac = f"{r.fractional.numerator}/{r.fractional.denominator}"
        integ = "" if r.integral is None else str(r.integral)
        ratio = "" if r.ratio is None else f"{r.ratio.numerator}/{r.ratio.denominator}"
        writer.writerow([r.label, r.n, frac, integ, ratio])
    return out.getvalue()
