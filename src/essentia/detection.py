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

The n pinned LPs need not all be solved.  On the path and cycle families
(both multicuts and DFVS) the detector first solves the unpinned LP, of
value LP*.  Every v with x*_v = 0 in its optimum x* has f_v = LP*: x* is
feasible for the v-pinned LP, and pinning only adds a constraint, so it
never lowers the value.  A pinned optimum of value LP* is itself an
unpinned optimum, so its zeros settle further vertices the same way.  The
remaining pinned LPs share one pool of cuts, since every obstacle is a
valid constraint of every pinned LP.  Vertex cover and cograph deletion,
whose obstacles are enumerated, keep one fresh LP per vertex seeded with
the obstacles through the pinned vertex: there the unpinned optimum has
few zeros and the shared pool measured slower.

The certified thresholds c+1 per problem are exported as
DETECTION_THRESHOLDS.  Ground truth for validation comes from
`essential_vertices_exact`, which brute-forces the per-vertex avoiding
optima on small instances.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, SizeCapError
from .exact import DEFAULT_NODE_CAP, opt_value, opt_value_avoiding
from .lp import solve
from .problems import Instance, Obstacle, Problem

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

# Families whose oracle finds cuts by path or cycle search, one per round:
# these share one cut pool and take the zero rule (see the module docstring).
_SHARED_POOL = frozenset(
    {Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT, Problem.DFVS}
)

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


def _pinned_values(
    payload: tuple[Instance, list[int], Optional[list[Obstacle]], Optional[Fraction]],
) -> tuple[dict[int, Fraction], int, int]:
    """f_v for the listed vertices: (values, LP solves, final pool size).

    With a pool (path and cycle families), the pinned LPs share a copy of it
    and each pinned optimum of value LP* = `star` settles its zeros too;
    without one, every vertex gets a fresh LP.
    """
    inst, todo, pool, star = payload
    if pool is not None:
        pool = list(pool)
    values: dict[int, Fraction] = {}
    solves = 0
    for v in todo:
        if v in values:
            continue
        if pool is None:
            sol = solve(inst, v)
        else:
            sol = solve(inst, v, pool)
            pool.extend(sol.added)
        solves += 1
        values[v] = sol.value
        if sol.value == star:
            for u in todo:
                if u not in values and sol.weights[u] == 0:
                    values[u] = star
    return values, solves, 0 if pool is None else len(pool)


def lp_values(inst: Instance, jobs: int = 1) -> tuple[Fraction, ...]:
    """Value of the v-pinned LP for every vertex v (the f_v vector).

    On the path and cycle families the unpinned LP is solved first, and
    every vertex at 0 in its optimum x* gets f_v = LP*: x* is feasible for
    that vertex's pinned LP, whose value is never below LP*.  The pinned
    LPs left share the unpinned LP's cuts and every cut found since, and a
    pinned optimum of value LP* settles its zeros as well.  Vertex cover
    and cograph deletion solve one seeded LP per vertex.  jobs > 1 splits
    the pinned LPs left over at most min(jobs, CPU count, LPs left)
    processes, each starting from a copy of the unpinned LP's pool.  One
    DEBUG record on the "essentia.detection" logger gives the LP solves,
    the vertices settled by the zero rule and the final pool size.
    """
    n = inst.n
    values: list[Optional[Fraction]] = [None] * n
    pool: Optional[list[Obstacle]] = None
    star: Optional[Fraction] = None
    if n and inst.problem in _SHARED_POOL:
        top = solve(inst)
        pool = list(top.added)
        star = top.value
        for v, x in enumerate(top.weights):
            if x == 0:
                values[v] = star
    todo = [v for v in range(n) if values[v] is None]
    workers = min(jobs, os.cpu_count() or 1, len(todo))
    if workers <= 1:
        results = [_pinned_values((inst, todo, pool, star))]
    else:
        payloads = [(inst, todo[i::workers], pool, star) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_pinned_values, payloads))
    pinned = pool_size = 0
    for got, count, size in results:
        for v, f in got.items():
            values[v] = f
        pinned += count
        pool_size = max(pool_size, size)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "lp_values: %d LP solves, %d vertices settled by the zero rule, pool %d",
            pinned + (pool is not None), n - pinned, pool_size,
        )
    return tuple(values)


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
