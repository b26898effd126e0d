"""Cutting-plane solver for the hitting-set LP and its vertex-avoiding variant.

The LP relaxation minimises the total vertex mass subject to every obstacle
carrying mass at least 1, with box constraints 0 <= x_u <= 1 and optionally
the pin x_v = 0.  Obstacle families are implicit and possibly huge, so the
solver alternates an exact restricted solve over a growing constraint pool
with the separation oracle: when the oracle certifies the restricted optimum
feasible for the full family, that optimum is also the full optimum (the
restricted value can only underestimate it).  All values are exact rationals.
The loop stays in integers: each round hands the kernel's numerators over
its objective denominator straight to the oracle, and `Fraction` weights are
built once, for the certified optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import InputError, IterationCapError
from .graphs import ZERO, VertexWeights
from .problems import (
    Instance,
    Obstacle,
    ObstacleKind,
    Problem,
    all_induced_p4s,
    find_violated_obstacle,
    separate_numerators,
)
from .simplex import PackingSimplex

# Pin-containing seeds are only worth their tableau columns while few; above
# this multiple of n the oracle loop finds what matters faster.  Measured on
# bench reduce-enum seed 21, ops 0-399 (2 vCPUs, Python 3.11.7): the cap drops
# the seeds of 240 of 1,000 cograph pins and 100 of 2,112 matching-apex pins,
# and never fires on vertex cover, where a vertex has fewer than 2n
# neighbours.  Seeding without the cap, timed against it instance by
# instance, made lp_values 17% slower on matching-apex (slower on 94 of 100
# instances) and 13% faster on cograph (76 of 100), 0.5% slower over the mix;
# end to end, 6 alternating 35 s pairs gave 77.2 ops/s without it, 77.5 with.
_SEED_CAP_FACTOR = 2


@dataclass
class LpProblem:
    """One solver run: an instance, an optional pinned vertex, a growing pool."""

    instance: Instance
    pinned_vertex: Optional[int] = None
    constraint_pool: list[Obstacle] = field(default_factory=list)

    def __post_init__(self):
        if self.pinned_vertex is not None and not 0 <= self.pinned_vertex < self.instance.n:
            raise InputError(f"pinned vertex {self.pinned_vertex} out of range")


@dataclass(frozen=True)
class FractionalSolution:
    """Exact per-vertex LP values together with their total."""

    weights: VertexWeights
    value: Fraction

    def __post_init__(self):
        # One pass in ints: the weight total accumulates as num / den over
        # the least common denominator so far.  The total is checked before
        # the range, so the first out-of-range vertex is only remembered.
        num, den, bad = 0, 1, None
        for u, x in enumerate(self.weights):
            try:
                p, q = x.numerator, x.denominator
            except AttributeError:
                raise InputError(f"weight of vertex {u} is not an exact rational: {x!r}") from None
            if bad is None and (p < 0 or p > q):
                bad = u
            if den % q:
                m = q // gcd(den, q)
                den *= m
                num *= m
            num += p * (den // q)
        total = Fraction(num, den)
        if total != self.value:
            raise InputError(f"solution value {self.value} != weight total {total}")
        if bad is not None:
            raise InputError(f"weight of vertex {bad} out of [0, 1]: {self.weights[bad]}")


def _cheap_pin_seeds(inst: Instance, pinned: int) -> list[Obstacle]:
    """Small pin-containing obstacles worth pooling before the oracle loop."""
    g = inst.graph
    if inst.problem is Problem.VERTEX_COVER:
        quads = [(min(pinned, v), max(pinned, v)) for v in sorted(g.neighbors(pinned))]
        kind = ObstacleKind.EDGE
    elif inst.problem is Problem.COGRAPH_DELETION:
        quads = [q for q in all_induced_p4s(g) if pinned in q]
        kind = ObstacleKind.INDUCED_P4
    else:
        return []
    if not quads or len(quads) > _SEED_CAP_FACTOR * g.n:
        return []
    return [Obstacle(kind, frozenset(q), q) for q in quads]


def solve(lp: LpProblem, max_cuts: Optional[int] = None) -> FractionalSolution:
    """Exact optimum of the (possibly vertex-avoiding) hitting-set LP.

    Runs cutting planes over the separation oracle, warm-starting the exact
    simplex after every cut.  Each round the oracle prices the kernel's
    numerators over its objective denominator directly, trusting them to
    lie in [0, 1].  The returned solution is feasible for *all* obstacles
    (the oracle says so, on exactly those numerators) and optimal
    (restricted optima are lower bounds); building it checks its range and
    its total against the objective row.  Raises IterationCapError after
    `max_cuts` cuts, 10*n^2 by default; the cap signals a diagnostics
    failure, never a wrong answer.
    """
    inst = lp.instance
    n = inst.n
    if max_cuts is None:
        max_cuts = 10 * n * n
    engine = PackingSimplex(lp.pinned_vertex)
    if not lp.constraint_pool and lp.pinned_vertex is not None:
        lp.constraint_pool.extend(_cheap_pin_seeds(inst, lp.pinned_vertex))
    for ob in lp.constraint_pool:
        engine.add_constraint(ob.vertices)
    engine.optimize()
    cuts = 0
    while True:
        den, nums = engine.covering_numerators(n)
        violated = separate_numerators(inst, den, nums, lp.pinned_vertex)
        if violated is None:
            return FractionalSolution(engine.covering_solution(n), engine.objective())
        if cuts >= max_cuts:
            raise IterationCapError(
                f"no convergence within {max_cuts} cuts (n={n})"
            )
        cuts += 1
        lp.constraint_pool.append(violated)
        engine.add_constraint(violated.vertices)
        engine.optimize()


def solve_restricted(
    pool: Sequence[Obstacle | Iterable[int]],
    n: int,
    pinned: Optional[int] = None,
) -> FractionalSolution:
    """Exact optimum of the finite covering LP over an explicit pool.

    The all-ones vector is feasible unless some pooled constraint equals the
    pinned vertex alone; that case raises PinInfeasibleError.
    """
    engine = PackingSimplex(pinned)
    for ob in pool:
        vertices = ob.vertices if isinstance(ob, Obstacle) else ob
        members = set(vertices)
        for u in members:
            if not 0 <= u < n:
                raise InputError(f"pooled constraint vertex {u} out of range (n={n})")
        engine.add_constraint(members)
    engine.optimize()
    return FractionalSolution(engine.covering_solution(n), engine.objective())


def verify_feasible(lp: LpProblem, sol: FractionalSolution) -> bool:
    """Independent audit: box and pin constraints hold and no obstacle is light."""
    inst = lp.instance
    if len(sol.weights) != inst.n:
        return False
    if any(x < 0 or x > 1 for x in sol.weights):
        return False
    if sum(sol.weights, ZERO) != sol.value:
        return False
    if lp.pinned_vertex is not None and sol.weights[lp.pinned_vertex] != 0:
        return False
    return find_violated_obstacle(inst, sol.weights, v_pinned=lp.pinned_vertex) is None
