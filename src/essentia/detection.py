"""Detection of vertices that every good solution must contain.

The detector computes, for every vertex v, the value f_v of the LP
relaxation with v pinned to 0, and outputs S = {v : f_v > k} for the given
guess k, compared exactly.  Two guarantees back the rule and are enforced
empirically by the test suite:

* if the optimum is at most k, some optimal solution contains all of S: an
  optimal solution avoiding a selected v would be an integral v-avoiding
  solution of value <= k < f_v, contradicting the LP bound;
* if the optimum equals k, S contains every vertex that all approximate
  solutions within the problem's certified rounding factor c must use:
  were such a vertex v unselected, restricting the fractional solution to
  the graph minus an optimal-solution-minus-v (a residue that v alone
  solves, where the factor-c rounding applies) would produce a v-avoiding
  solution of size < (c+1) * opt, contradicting how essential v is.

The n pinned LPs need not all be solved, and on vertex cover none is:
its LP is half-integral (Nemhauser-Trotter), and pinning v to 0 forces
N(v) to 1 and leaves the LP of G - N[v], whose value is half the maximum
matching of its bipartite double cover.  Every other family first solves
the unpinned LP, of value LP*.  Every v with x*_v = 0 in its optimum x*
has f_v = LP*: x* is feasible for the v-pinned LP, and pinning only adds a
constraint, so it never lowers the value.  A pinned optimum of value LP*
is itself an unpinned optimum, so its zeros settle further vertices the
same way.  What each remaining pinned LP starts from is decided here, in
`_starts`, and nowhere else: `lp.solve` runs from whatever pool it gets.

The certified thresholds c+1 per problem are exported as
DETECTION_THRESHOLDS.  Ground truth for validation comes from
`essential_vertices_exact`, which brute-forces the per-vertex avoiding
optima on small instances.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, SizeCapError
from .exact import DEFAULT_NODE_CAP, opt_value, opt_value_avoiding
from .graphs import double_cover_matching
from .lp import FractionalSolution, solve
from .problems import Instance, Obstacle, ObstacleKind, Problem, all_induced_p4s

# Per problem: the essentiality threshold whose vertices detection is
# guaranteed to find when k equals the optimum (one plus the certified
# integrality-gap factor of the vertex-avoiding relaxation).
DETECTION_THRESHOLDS: dict[Problem, Fraction] = {
    Problem.VERTEX_MULTICUT: Fraction(3),
    Problem.DIRECTED_VERTEX_MULTICUT: Fraction(5),
    Problem.COGRAPH_DELETION: Fraction(7, 2),
    Problem.VERTEX_COVER: Fraction(2),
    Problem.DFVS: Fraction(2),
}

DEFAULT_SIZE_CAP = 14

# A cograph pinned LP starts from the induced P4s through its vertex only
# while they number at most this multiple of n.  lp_values CPU on bench
# reduce-enum seeds 3, 5, 21, ops 0-399 (300 cograph and 300 matching-apex
# instances, runs alternated, 2 vCPUs, Python 3.11.7): 1.48 s capped, 1.64
# s uncapped; the cap halves matching-apex (0.28 vs 0.55 s) and costs plain
# cograph 11% (1.21 vs 1.09 s).
_P4_START_CAP = 2

_log = logging.getLogger("essentia.detection")


@dataclass(frozen=True)
class DetectionRequest:
    """An instance plus the guess k for its optimum solution size."""

    instance: Instance
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.instance.n:
            raise InputError(f"k={self.k} out of range (n={self.instance.n})")


@dataclass(frozen=True)
class DetectionResult:
    selected: frozenset[int]
    lp_values: tuple[Fraction, ...]
    threshold_used: Fraction

    def __post_init__(self):
        expect = frozenset(
            v for v, f in enumerate(self.lp_values) if f > self.threshold_used
        )
        if expect != self.selected:
            raise InputError("selected set does not match the value threshold")


def _starts(
    inst: Instance, top: FractionalSolution, todo: list[int]
) -> list[tuple[int, tuple[Obstacle, ...]]]:
    """The pool each pinned LP left starts from, as (v, pool) pairs.

    Path and cycle families: the unpinned LP's cuts, one tuple for all.
    Cograph deletion: the induced P4s through v, indexed once for every
    vertex, or none above `_P4_START_CAP` * n of them.
    """
    if inst.problem is not Problem.COGRAPH_DELETION:
        return [(v, top.added) for v in todo]
    through: dict[int, list[Obstacle]] = {v: [] for v in todo}
    for quad in all_induced_p4s(inst.graph):
        hit = [u for u in quad if u in through]
        if hit:
            ob = Obstacle(ObstacleKind.INDUCED_P4, frozenset(quad), quad)
            for u in hit:
                through[u].append(ob)
    cap = _P4_START_CAP * inst.n
    return [(v, tuple(obs) if len(obs) <= cap else ()) for v, obs in through.items()]


def _pinned_values(
    payload: tuple[Instance, list[tuple[int, tuple[Obstacle, ...]]], Fraction],
) -> tuple[dict[int, Fraction], int]:
    """f_v for the listed (v, pool) pairs, and the LP solves it took.

    A pinned optimum of value LP* = `star` settles its listed zeros too.
    """
    inst, starts, star = payload
    values: dict[int, Fraction] = {}
    solves = 0
    for v, pool in starts:
        if v in values:
            continue
        sol = solve(inst, v, pool)
        solves += 1
        values[v] = sol.value
        if sol.value == star:
            for u, _ in starts:
                if u not in values and sol.weights[u] == 0:
                    values[u] = star
    return values, solves


def lp_values(inst: Instance, jobs: int = 1) -> tuple[Fraction, ...]:
    """Value of the v-pinned LP for every vertex v (the f_v vector).

    Vertex cover solves no LP: f_v = |N(v)| + nu/2, with nu the maximum
    matching of the double cover of G - N[v].  Every other family solves
    the unpinned LP, settles each vertex at 0 in its optimum (and in any
    pinned optimum of value LP*) with f_v = LP*, and starts each pinned LP
    left from `_starts`.  jobs > 1 splits those LPs over at most min(jobs,
    CPU count, LPs left) processes.  One DEBUG record on the
    "essentia.detection" logger gives the LP solves and the vertices
    settled by the zero rule.
    """
    n = inst.n
    if inst.problem is Problem.VERTEX_COVER:
        nbrs = inst.graph.neighbors
        values = tuple(
            len(nbrs(v)) + Fraction(double_cover_matching(inst.graph, nbrs(v) | {v}), 2)
            for v in range(n)
        )
        solves = settled = 0
    else:
        top = solve(inst)
        star = top.value
        values = [star if x == 0 else None for x in top.weights]
        starts = _starts(inst, top, [v for v in range(n) if values[v] is None])
        workers = min(jobs, os.cpu_count() or 1, len(starts))
        if workers <= 1:
            results = [_pinned_values((inst, starts, star))]
        else:
            # imported here: loading it pulls in multiprocessing, which a
            # one-worker run never uses
            from concurrent.futures import ProcessPoolExecutor

            payloads = [(inst, starts[i::workers], star) for i in range(workers)]
            with ProcessPoolExecutor(max_workers=workers) as executor:
                results = list(executor.map(_pinned_values, payloads))
        pinned = 0
        for got, count in results:
            for v, f in got.items():
                values[v] = f
            pinned += count
        values, solves, settled = tuple(values), pinned + 1, n - pinned
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "lp_values: %d LP solves, %d vertices settled by the zero rule", solves, settled
        )
    return values


def detect(req: DetectionRequest, jobs: int = 1) -> DetectionResult:
    """Select every vertex whose pinned LP value exceeds k (exact compare)."""
    values = lp_values(req.instance, jobs=jobs)
    threshold = Fraction(req.k)
    selected = frozenset(v for v, f in enumerate(values) if f > threshold)
    return DetectionResult(selected=selected, lp_values=values, threshold_used=threshold)


def essential_vertices_exact(
    inst: Instance,
    c: Fraction,
    size_cap: int = DEFAULT_SIZE_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> frozenset[int]:
    """Ground truth: vertices contained in every solution of size <= c * opt.

    Computed from exact optima with each vertex forbidden in turn, so it is
    guarded by a size cap (exhaustive solving only).  c may be any exact
    rational, e.g. Fraction(7, 2).
    """
    if inst.n > size_cap:
        raise SizeCapError(f"n={inst.n} exceeds the exact-essentiality cap {size_cap}")
    c = Fraction(c)
    if c < 1:
        raise InputError(f"essentiality factor must be >= 1, got {c}")
    opt = opt_value(inst, node_cap)
    out = set()
    for v in range(inst.n):
        avoiding = opt_value_avoiding(inst, frozenset({v}), node_cap)
        if avoiding is None or avoiding > c * opt:
            out.add(v)
    return frozenset(out)
