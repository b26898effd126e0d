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
same way.  Every remaining pinned LP starts from the unpinned LP's optimal
tableau with v's row dropped (`lp.solve(inst, v, start=top)`), one rule for
every family: pinning v only deletes v's row of the packing dual, so that
basis stays feasible and the LP goes on with one primal step from it.

The certified thresholds c+1 per problem are exported as
DETECTION_THRESHOLDS.  Ground truth for validation comes from
`essential_vertices_exact`, which brute-forces the per-vertex avoiding
optima on small instances.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, SizeCapError
from .exact import DEFAULT_NODE_CAP, opt_value
from .graphs import _double_cover_mates, _is_int, _rational
from .lp import FractionalSolution, solve
from .problems import Instance, Problem

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

_log = logging.getLogger("essentia.detection")


@dataclass(frozen=True)
class DetectionResult:
    """The f_v vector, stored as a tuple, the threshold, and `selected` =
    {v : f_v > threshold}, derived from them."""

    selected: frozenset[int] = field(init=False)
    lp_values: tuple[Fraction, ...]
    threshold_used: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lp_values", tuple(self.lp_values))
        selected = frozenset(v for v, f in enumerate(self.lp_values) if f > self.threshold_used)
        object.__setattr__(self, "selected", selected)


def _pinned_values(
    payload: tuple[Instance, FractionalSolution, list[int]],
) -> tuple[dict[int, Fraction], int, int]:
    """f_v for the listed vertices, each pinned LP started from `top`, and the LP solves and pivots it took.

    A pinned optimum of value LP* = `top.value` settles its listed zeros too.
    """
    inst, top, todo = payload
    star = top.value
    values: dict[int, Fraction] = {}
    solves = pivots = 0
    for v in todo:
        if v in values:
            continue
        sol = solve(inst, v, start=top)
        solves += 1
        pivots += sol.tableau.pivots
        values[v] = sol.value
        if sol.value == star:
            for u in todo:
                if u not in values and sol.weights[u] == 0:
                    values[u] = star
    return values, solves, pivots


def lp_values(inst: Instance, jobs: int = 1) -> tuple[Fraction, ...]:
    """Value of the v-pinned LP for every vertex v (the f_v vector).

    Vertex cover solves no LP: f_v = |N(v)| + nu/2, with nu the maximum
    matching of the double cover of G - N[v], each started from the
    previous vertex's.  Every other family solves the unpinned LP, settles
    each vertex at 0 in its optimum (and in any pinned optimum of value
    LP*) with f_v = LP*, and starts each pinned LP left from the unpinned
    LP's optimal tableau.  jobs > 1 splits those LPs over at most
    min(jobs, CPU count, LPs left) processes, each sent the unpinned
    solution; jobs that is not an int >= 1 (a bool included) is an
    InputError.  One DEBUG record on the "essentia.detection" logger gives
    the LP solves, the simplex pivots they made (workers' included) and
    the vertices settled by the zero rule.
    """
    if not _is_int(jobs) or jobs < 1:
        raise InputError(f"jobs must be an int >= 1, got {jobs!r}")
    n = inst.n
    if inst.problem is Problem.VERTEX_COVER:
        g, mates, values = inst.graph, None, []
        for v in range(n):
            mates = _double_cover_mates(g, g.neighbors(v) | {v}, mates)
            values.append(len(g.neighbors(v)) + Fraction(n - mates.count(None), 2))
        values, solves, pivots, settled = tuple(values), 0, 0, 0
    else:
        top = solve(inst)
        todo = [v for v, x in enumerate(top.weights) if x != 0]
        workers = min(jobs, os.cpu_count() or 1, len(todo)) if jobs > 1 else 1
        if workers <= 1:
            results = [_pinned_values((inst, top, todo))]
        else:
            # imported here: loading it pulls in multiprocessing, which a
            # one-worker run never uses
            from concurrent.futures import ProcessPoolExecutor

            payloads = [(inst, top, todo[i::workers]) for i in range(workers)]
            with ProcessPoolExecutor(max_workers=workers) as executor:
                results = list(executor.map(_pinned_values, payloads))
        values = [top.value] * n
        pinned, pivots = 0, top.tableau.pivots
        for got, count, made in results:
            for v, f in got.items():
                values[v] = f
            pinned += count
            pivots += made
        values, solves, settled = tuple(values), pinned + 1, n - pinned
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "lp_values: %d LP solves, %d pivots, %d vertices settled by the zero rule",
            solves,
            pivots,
            settled,
        )
    return values


def detect(inst: Instance, k: int, jobs: int = 1) -> DetectionResult:
    """Select every vertex whose pinned LP value exceeds k (exact compare).

    k is the guess for the optimum size; one that is not an int in 0..n
    (a bool or a float included) is an InputError.
    """
    if not _is_int(k):
        raise InputError(f"k must be an int, got {k!r}")
    if not 0 <= k <= inst.n:
        raise InputError(f"k={k} out of range (n={inst.n})")
    return DetectionResult(lp_values(inst, jobs=jobs), Fraction(k))


def essential_vertices_exact(
    inst: Instance,
    c: Fraction,
    size_cap: int = DEFAULT_SIZE_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> frozenset[int]:
    """Ground truth: vertices contained in every solution of size <= c * opt.

    Computed from exact optima with each vertex forbidden in turn, so it is
    guarded by a size cap (exhaustive solving only): a size cap that is not
    a nonnegative int is an InputError, a graph above it a SizeCapError.
    c may be any exact rational >= 1 (an int or a `Fraction`), e.g. Fraction(7, 2).
    """
    if not _is_int(size_cap) or size_cap < 0:
        raise InputError(f"size_cap must be a nonnegative int, got {size_cap!r}")
    if inst.n > size_cap:
        raise SizeCapError(f"n={inst.n} exceeds the exact-essentiality cap {size_cap}")
    c = _rational(c, "essentiality factor")
    if c < 1:
        raise InputError(f"essentiality factor must be >= 1, got {c}")
    opt = opt_value(inst, node_cap)
    out = set()
    for v in range(inst.n):
        avoiding = opt_value(inst, node_cap, {v})
        if avoiding is None or avoiding > c * opt:
            out.add(v)
    return frozenset(out)
