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
The loop knows no problem by name and adds nothing but the oracle's cuts;
what a pinned LP starts from is `detection`'s choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import InputError, IterationCapError
from .graphs import VertexWeights
from .problems import Instance, Obstacle, find_violated_obstacle, separate_numerators
from .simplex import PackingSimplex

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


def _check_pin(inst: Instance, pinned: Optional[int]) -> None:
    if pinned is None:
        return
    if type(pinned) is bool or not isinstance(pinned, int):
        raise InputError(f"pinned vertex must be an int, got {pinned!r}")
    if not 0 <= pinned < inst.n:
        raise InputError(f"pinned vertex {pinned} out of range")


def solve(
    inst: Instance, pinned: Optional[int] = None, pool: Sequence[Obstacle] = ()
) -> FractionalSolution:
    """Exact optimum of the hitting-set LP, with `pinned` held at 0 if given.

    Runs cutting planes over the separation oracle from the obstacles in
    `pool`, warm-starting the exact simplex after every cut.  It only reads
    `pool`, and adds nothing to the LP but the oracle's cuts: they come back,
    in order, as the solution's `added`.  What a pinned LP starts from is
    the caller's choice (`detection` makes it).  Each round the oracle
    prices the kernel's numerators over its objective denominator directly,
    trusting them to lie in [0, 1].  The returned solution is feasible for
    *all* obstacles (the oracle says so, on exactly those numerators) and
    optimal (restricted optima are lower bounds); building it checks its
    range and its total against the objective row.  Raises InputError on a
    pin that is not an in-range int (a bool is refused), and
    IterationCapError after 10*n^2 cuts; the cap signals a diagnostics
    failure, never a wrong answer.
    """
    _check_pin(inst, pinned)
    n = inst.n
    max_cuts = 10 * n * n
    engine = PackingSimplex(pinned)
    for ob in pool:
        engine.add_constraint(ob.vertices)
    engine.optimize()
    added = []
    while True:
        den, nums = engine.covering_numerators(n)
        violated = separate_numerators(inst, den, nums, pinned)
        if violated is None:
            x = engine.covering_solution(n)
            return FractionalSolution(x, engine.objective(), tuple(added))
        if len(added) >= max_cuts:
            raise IterationCapError(f"no convergence within {max_cuts} cuts (n={n})")
        added.append(violated)
        engine.add_constraint(violated.vertices)
        engine.optimize()


def verify_feasible(
    inst: Instance, sol: FractionalSolution, pinned: Optional[int] = None
) -> bool:
    """Independent audit: the pin holds and no obstacle is light (box and total hold already)."""
    _check_pin(inst, pinned)
    if len(sol.weights) != inst.n or (pinned is not None and sol.weights[pinned] != 0):
        return False
    return find_violated_obstacle(inst, sol.weights, v_pinned=pinned) is None
