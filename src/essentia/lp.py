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
built once, for the certified optimum.  Every function here is pure: `solve`
only reads the pool it starts from and returns what it adds on the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import InputError, IterationCapError
from .graphs import VertexWeights
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


@dataclass(frozen=True)
class FractionalSolution:
    """Exact per-vertex LP values, their total, and what `solve` added to its pool."""

    weights: VertexWeights
    value: Fraction
    added: tuple[Obstacle, ...] = field(default=(), compare=False, repr=False)

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


def _check_pin(inst: Instance, pinned: Optional[int]) -> None:
    if pinned is not None and not 0 <= pinned < inst.n:
        raise InputError(f"pinned vertex {pinned} out of range")


def solve(
    inst: Instance, pinned: Optional[int] = None, pool: Sequence[Obstacle] = ()
) -> FractionalSolution:
    """Exact optimum of the hitting-set LP, with `pinned` held at 0 if given.

    Runs cutting planes over the separation oracle from the obstacles in
    `pool` (an empty pool of a pinned LP is seeded with small obstacles
    through the pin), warm-starting the exact simplex after every cut.  It
    only reads `pool`: its seeds, then its cuts, come back as the solution's
    `added`.  Each round the oracle prices the kernel's numerators over its
    objective denominator directly, trusting them to lie in [0, 1].  The
    returned solution is feasible for *all* obstacles (the oracle says so,
    on exactly those numerators) and optimal (restricted optima are lower
    bounds); building it checks its range and its total against the
    objective row.  Raises IterationCapError after 10*n^2 cuts; the cap
    signals a diagnostics failure, never a wrong answer.
    """
    _check_pin(inst, pinned)
    n = inst.n
    max_cuts = 10 * n * n
    engine = PackingSimplex(pinned)
    added = _cheap_pin_seeds(inst, pinned) if not pool and pinned is not None else []
    for ob in [*pool, *added]:
        engine.add_constraint(ob.vertices)
    engine.optimize()
    cuts = 0
    while True:
        den, nums = engine.covering_numerators(n)
        violated = separate_numerators(inst, den, nums, pinned)
        if violated is None:
            x = engine.covering_solution(n)
            return FractionalSolution(x, engine.objective(), tuple(added))
        if cuts >= max_cuts:
            raise IterationCapError(f"no convergence within {max_cuts} cuts (n={n})")
        cuts += 1
        added.append(violated)
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


def verify_feasible(
    inst: Instance, sol: FractionalSolution, pinned: Optional[int] = None
) -> bool:
    """Independent audit: the pin holds and no obstacle is light (box and total hold already)."""
    _check_pin(inst, pinned)
    if len(sol.weights) != inst.n or (pinned is not None and sol.weights[pinned] != 0):
        return False
    return find_violated_obstacle(inst, sol.weights, v_pinned=pinned) is None
