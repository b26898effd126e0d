"""Detection of vertices that every good solution must contain.

For every vertex v the detector solves the LP relaxation with v pinned to 0
and records its value f_v; the output set is S = {v : f_v > k} for the given
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

The certified thresholds c+1 per problem are exported as
DETECTION_THRESHOLDS.  Ground truth for validation comes from
`essential_vertices_exact`, which brute-forces the per-vertex avoiding
optima on small instances.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, SizeCapError
from .exact import DEFAULT_NODE_CAP, opt_value, opt_value_avoiding
from .lp import LpProblem, solve
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


def _pinned_value(payload: tuple[Instance, int]) -> Fraction:
    inst, v = payload
    return solve(LpProblem(inst, pinned_vertex=v)).value


def lp_values(inst: Instance, jobs: int = 1) -> tuple[Fraction, ...]:
    """Value of the v-pinned LP for every vertex v (the f_v vector).

    The n solves are independent; jobs > 1 fans them out over at most
    min(jobs, CPU count, n) processes.
    """
    payloads = [(inst, v) for v in range(inst.n)]
    workers = min(jobs, os.cpu_count() or 1, inst.n)
    if workers <= 1:
        return tuple(_pinned_value(p) for p in payloads)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(pool.map(_pinned_value, payloads))


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
