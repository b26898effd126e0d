"""Cutting-plane solver for the hitting-set LP and its vertex-avoiding variant.

The LP relaxation minimises the total vertex mass subject to every obstacle
carrying mass at least 1, with box constraints 0 <= x_u <= 1 and optionally
the pin x_v = 0.  The obstacle families are implicit and possibly huge, so the
solver alternates an exact restricted solve over a growing constraint pool
with the separation oracle: when the oracle certifies the restricted optimum
feasible for the full family, that optimum is also the full optimum (the
restricted value can only underestimate it).  All values are exact rationals.
The loop stays in integers: each round hands the kernel's numerators over
its objective denominator straight to `problems.cheapest_obstacle` and adds
the witness it returns as the next cut, and `Fraction` weights are built
once, for the certified optimum.  Every function here is pure: a
pinned LP may start from the unpinned LP's solution, whose optimal tableau
it copies with the pinned vertex's row dropped, and it never writes into
that solution.  The loop knows no problem by name and adds nothing but the
oracle's cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import InputError, IterationCapError, PreconditionError
from .graphs import VertexWeights, _is_rational, _vertex_set, _weight_tuple
from .problems import Instance, cheapest_obstacle, find_violated_obstacle
from .simplex import PackingSimplex


@dataclass(frozen=True)
class FractionalSolution:
    """Exact per-vertex LP values and their total.

    The weights are stored as a tuple, each an exact rational (a `Fraction`
    or an int, never a bool) in [0, 1], and the value is their total, an
    exact rational too; anything else is an InputError.  A solution from
    `solve` also carries the witnesses of the cuts it added, the instance
    it solved and its final tableau, which a pinned LP of the same instance
    can start from; none of them takes part in `==`, `hash` or `repr`.
    """

    weights: VertexWeights
    value: Fraction
    added: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
    instance: Optional[Instance] = field(default=None, compare=False, repr=False)
    tableau: Optional[PackingSimplex] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _weight_tuple(self.weights))
        if not _is_rational(self.value):
            raise InputError(f"solution value is not an exact rational: {self.value!r}")
        # One pass in ints: the weight total accumulates as num / den over
        # the least common denominator so far.  The total is checked before
        # the range, so the first out-of-range vertex is only remembered.
        num, den, bad = 0, 1, None
        for u, x in enumerate(self.weights):
            if not _is_rational(x):
                raise InputError(f"weight of vertex {u} is not an exact rational: {x!r}")
            p, q = x.numerator, x.denominator
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
    """Refuse a pin that is neither None nor an in-range int."""
    if pinned is not None:
        _vertex_set((pinned,), inst.n, "pinned")


def _start_engine(inst: Instance, start: FractionalSolution) -> PackingSimplex:
    """The unpinned optimal tableau `start` carries, once checked to fit `inst`."""
    engine = start.tableau
    if engine is None:
        raise InputError("start carries no tableau: pass the result of solve(inst)")
    if engine.pinned is not None:
        raise InputError(f"start is an LP pinned at vertex {engine.pinned}, not the unpinned LP")
    if start.instance != inst:
        raise InputError("start was solved on another instance")
    return engine


def solve(
    inst: Instance, pinned: Optional[int] = None, start: Optional[FractionalSolution] = None
) -> FractionalSolution:
    """Exact optimum of the hitting-set LP, with `pinned` held at 0 if given.

    Runs cutting planes over the separation oracle, warm-starting the exact
    simplex after every cut.  Without `start` it begins from no constraint
    at all; `start` is `solve(inst)`'s result, and then the LP begins from
    a copy of its optimal tableau with the pinned vertex's row dropped
    (`PackingSimplex.with_pin`), so its cuts are never added again.  The
    witnesses of the oracle's cuts come back, in order, as the solution's
    `added`; the solution also carries `inst` and its final tableau.  Each
    round `cheapest_obstacle` prices the kernel's numerators against its
    objective denominator directly, trusting them to lie in [0, 1].  The
    returned solution is feasible for *all* obstacles (the oracle says so,
    on exactly those numerators) and optimal (restricted optima are lower
    bounds); building it checks its range and its total against the
    objective row.  Raises InputError on a pin that is not an in-range int
    (a bool is refused) and on a `start` that carries no tableau, is pinned
    or was solved on an unequal instance, and IterationCapError after
    10*n^2 cuts; the cap signals a diagnostics failure, never a wrong answer.
    """
    _check_pin(inst, pinned)
    engine = (PackingSimplex() if start is None else _start_engine(inst, start)).with_pin(pinned)
    n = inst.n
    max_cuts = 10 * n * n
    engine.optimize()
    added = []
    while True:
        den, nums = engine.covering_numerators(n)
        if pinned is not None and nums[pinned]:
            raise PreconditionError(f"pinned vertex {pinned} must have weight 0")
        found = cheapest_obstacle(inst, nums, below=den)
        if found is None:
            x = engine.covering_solution(n)
            return FractionalSolution(x, engine.objective(), tuple(added), inst, engine)
        if len(added) >= max_cuts:
            raise IterationCapError(f"no convergence within {max_cuts} cuts (n={n})")
        added.append(found[1])
        engine.add_constraint(found[1])
        engine.optimize()


def verify_feasible(
    inst: Instance, sol: FractionalSolution, pinned: Optional[int] = None
) -> bool:
    """Independent audit: the pin holds and no obstacle is light (box and total hold already)."""
    _check_pin(inst, pinned)
    if len(sol.weights) != inst.n or (pinned is not None and sol.weights[pinned] != 0):
        return False
    return find_violated_obstacle(inst, sol.weights) is None
