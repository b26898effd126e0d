"""Constructive rounding of vertex-avoiding LP optima with certified factors.

All three rounders operate in the regime where a single vertex v alone hits
every obstacle and the fractional solution avoids v.  They turn the
fractional solution into an integral one of certified size:

* multicut (factor 2): collect the vertices whose every path to v carries
  fractional weight at least 1/2, then cut them away from v with a minimum
  vertex separator.  "Every v-u path weighs at least 1/2" is the separation
  question of the multicut instance with the single pair (v, u), so the
  heavy sets ask `problems.cheapest_obstacle`, the package's one path
  search.  Doubling the fractional values yields a fractional
  separator of weight 2z, and vertex-disjoint-path duality bounds the
  integral separator by the same amount.
* directed multicut (factor 4): the same idea applied twice, once against
  the vertices that reach v heavily (a source-side separator) and once
  against the vertices v reaches heavily (a sink-side separator).
* cograph deletion (factor 5/2): iteratively harvest all vertices of
  residual weight at least 2/5; when none remain, every vertex that still
  lies on an induced P4 weighs at least 1/5, and the lighter half of the
  split of those vertices by adjacency to v completes the solution.

Every certificate records the witness sets and is validated on construction;
preconditions are checked loudly rather than producing unsound certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PreconditionError
from .graphs import Graph, check_weights, min_vertex_separator
from .lp import FractionalSolution, _check_pin
from .problems import Instance, Problem, cheapest_obstacle, is_solution, listed_obstacles

POINT_FOUR = Fraction(2, 5)
POINT_TWO = Fraction(1, 5)


@dataclass(frozen=True)
class RoundingCertificate:
    """An integral solution with the sets witnessing its size bound."""

    factor_bound: Fraction
    fractional_value: Fraction
    integral_set: frozenset[int]
    witness_sets: dict[str, tuple]
    pinned_vertex: int

    def __post_init__(self):
        # callers may build a certificate directly, so a violation is bad
        # input rather than an internal fault
        if self.pinned_vertex in self.integral_set:
            raise InputError("rounded set must avoid the pinned vertex")
        if len(self.integral_set) > self.factor_bound * self.fractional_value:
            raise InputError(
                f"factor bound violated: {len(self.integral_set)} > "
                f"{self.factor_bound} * {self.fractional_value}"
            )


def _check_inputs(
    inst: Instance, problem: Problem, v: int, x: FractionalSolution
) -> tuple[int, list[int]]:
    """Refuse a rounding's preconditions, else return x's weights over their
    least common denominator (`check_weights`, once per rounding).  x must
    be feasible with v pinned to 0, as `lp.verify_feasible` would say."""
    if inst.problem is not problem:
        raise PreconditionError(f"expected a {problem.value} instance, got {inst.problem.value}")
    _check_pin(inst, v)
    if not is_solution(inst, {v}):
        raise PreconditionError(f"{{{v}}} does not hit every obstacle; nothing to certify")
    if len(x.weights) == inst.n and x.weights[v] == 0:
        den, nums = check_weights(inst.graph, x.weights)
        if cheapest_obstacle(inst, nums, below=den) is None:
            return den, nums
    raise PreconditionError(f"fractional solution is not feasible with vertex {v} pinned to 0")


def _heavy_set(g: Graph, den: int, nums: list[int], v: int, to_v: bool = False) -> frozenset[int]:
    """Vertices u whose every path from v (to v, with `to_v`) weighs at least 1/2.

    u is heavy exactly when the multicut instance with the single pair
    (v, u), or (u, v) with `to_v`, has no terminal path lighter than 1/2.
    With the weights as numerators `nums` over den (`check_weights`, once
    per rounding), and every cost doubled, that is `cheapest_obstacle`
    finding nothing below den.  Vertices that v cannot reach (that cannot
    reach v) qualify vacuously; v itself never does, since x_v = 0.
    """
    cost = [2 * a for a in nums]
    problem = Problem.DIRECTED_VERTEX_MULTICUT if g.directed else Problem.VERTEX_MULTICUT
    heavy = set()
    for u in range(g.n):
        pair = (u, v) if to_v else (v, u)
        if u != v and cheapest_obstacle(Instance(problem, g, (pair,)), cost, below=den) is None:
            heavy.add(u)
    return frozenset(heavy)


def round_multicut(inst: Instance, v: int, x: FractionalSolution) -> RoundingCertificate:
    """Factor-2 rounding for undirected multicut when {v} is a solution.

    D holds the vertices all of whose paths to v weigh at least 1/2; for
    every terminal pair at least one endpoint lands in D, so any (v, D)
    separator avoiding v is a multicut.  The separator is cut in the
    instance's own graph and may contain members of D.
    """
    g = inst.graph
    d_set = _heavy_set(g, *_check_inputs(inst, Problem.VERTEX_MULTICUT, v, x), v)
    cut = min_vertex_separator(g, (v,), d_set, frozenset({v}))
    return RoundingCertificate(
        factor_bound=Fraction(2),
        fractional_value=x.value,
        integral_set=cut,
        witness_sets={"D": tuple(sorted(d_set))},
        pinned_vertex=v,
    )


def round_directed_multicut(inst: Instance, v: int, x: FractionalSolution) -> RoundingCertificate:
    """Factor-4 rounding for directed multicut when {v} is a solution.

    S holds the vertices whose every path *to* v weighs at least 1/2, T the
    same for paths *from* v; every terminal pair has its source in S or its
    target in T.  A minimum (S, v) separator plus a minimum (v, T) separator
    therefore cuts every terminal path, and each half is at most 2z.
    """
    den, nums = _check_inputs(inst, Problem.DIRECTED_VERTEX_MULTICUT, v, x)
    g = inst.graph
    s_set = _heavy_set(g, den, nums, v, to_v=True)
    t_set = _heavy_set(g, den, nums, v)
    cut_s = min_vertex_separator(g, s_set, (v,), frozenset({v}))
    cut_t = min_vertex_separator(g, (v,), t_set, frozenset({v}))
    return RoundingCertificate(
        factor_bound=Fraction(4),
        fractional_value=x.value,
        integral_set=cut_s | cut_t,
        witness_sets={
            "S": tuple(sorted(s_set)),
            "T": tuple(sorted(t_set)),
            "X_S": tuple(sorted(cut_s)),
            "X_T": tuple(sorted(cut_t)),
        },
        pinned_vertex=v,
    )


def round_cograph(inst: Instance, v: int, x: FractionalSolution) -> RoundingCertificate:
    """Factor-5/2 rounding for P4 hitting when the graph minus v is P4-free.

    Moves every vertex of weight >= 2/5 into the solution at once and
    deletes it; the restricted fractional solution stays feasible, so no
    re-solve is needed and the 2/5 threshold pays for each harvested
    vertex.  The weights never change, so one harvest leaves no heavy
    vertex behind.  Once no heavy vertex remains, each vertex still on an
    induced P4 weighs >= 1/5, and because every residual P4 passes through v
    it contains both a neighbor and a non-neighbor of v; the smaller side of
    that split (ties to the non-neighbors) finishes the job at cost at most
    half the residual support, i.e. 5/2 of the residual value.
    """
    _check_inputs(inst, Problem.COGRAPH_DELETION, v, x)
    g = inst.graph

    heavy = tuple(u for u in range(g.n) if x.weights[u] >= POINT_FOUR)
    removed = frozenset(heavy)

    v_star: set[int] = set()
    for quad in listed_obstacles(inst):
        if removed.isdisjoint(quad):
            v_star.update(quad)
    v_star.discard(v)
    if any(x.weights[u] < POINT_TWO for u in v_star):
        raise AssertionError("light vertex on a residual P4 contradicts feasibility")
    neigh = frozenset(v_star & g.neighbors(v))
    non_neigh = frozenset(v_star - g.neighbors(v))
    picked = neigh if len(neigh) < len(non_neigh) else non_neigh

    integral = removed | picked
    return RoundingCertificate(
        factor_bound=Fraction(5, 2),
        fractional_value=x.value,
        integral_set=integral,
        witness_sets={
            "heavy_rounds": (heavy,) if heavy else (),
            "V_star": tuple(sorted(v_star)),
            "split_neighbors": tuple(sorted(neigh)),
            "split_non_neighbors": tuple(sorted(non_neigh)),
            "picked": tuple(sorted(picked)),
        },
        pinned_vertex=v,
    )
