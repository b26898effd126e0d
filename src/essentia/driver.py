"""Search-space-reduced exact solving: detect, force, then solve the rest.

The driver sweeps the guess k = 0, 1, 2, ...: for each k it runs detection,
and whenever the detected set S fits inside k it forces S (deleting it from
the instance) and asks the exact solver for a residual solution of size at
most k - |S|.  For any vertex hitting set problem, Y solves the residual
exactly when S union Y solves the original, and below the optimum no residual
solution can exist, so the first success is an optimal solution.

This is the dovetail over a residual budget b of Bumpus, Jansen and de Kroon
with its repeated attempts removed: S shrinks as k grows, so the residual
budget k - |S| rises by at least one per step, and the dovetail tries the
same (k, S) pairs in the same order.  The exponential work is therefore
governed by the final residual budget, which detection keeps close to the
number of non-essential vertices in an optimal solution.

Detection inside the loop reuses one set of per-vertex LP values: f_v does
not depend on k, only the selection threshold does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Iterable

from .detection import lp_values
from .exact import DEFAULT_NODE_CAP, SolveBudget, solve_exact
from .graphs import Graph, _vertex_set
from .problems import Instance


@dataclass(frozen=True)
class DriverReport:
    """Outcome of a driver run, including the per-iteration trace."""

    solution: frozenset[int]
    opt: int
    detected: frozenset[int]
    residual_budget: int
    iterations: tuple[tuple[int, int, str], ...]  # (k, |S|, outcome)


def restrict_instance(inst: Instance, removed: Iterable[int]) -> tuple[Instance, list[int]]:
    """Delete a vertex set, dropping the obstacles it already destroys.

    Returns the reindexed instance and the new-to-old vertex map.  Terminal
    pairs with a deleted endpoint are already separated and disappear.  A
    removed vertex that is not an in-range int is an InputError.
    """
    removed = _vertex_set(removed, inst.n, "removed")
    keep = [u for u in range(inst.n) if u not in removed]
    old2new = {u: i for i, u in enumerate(keep)}
    g = inst.graph
    edges = [
        (old2new[a], old2new[b])
        for a, b in g.edges
        if a not in removed and b not in removed
    ]
    terminals = tuple(
        (old2new[s], old2new[t])
        for s, t in inst.terminals
        if s not in removed and t not in removed
    )
    sub = Instance(inst.problem, Graph(len(keep), g.directed, edges), terminals)
    return sub, keep


def solve_with_detection(
    inst: Instance, jobs: int = 1, node_cap: int = DEFAULT_NODE_CAP
) -> DriverReport:
    """Optimal solution via staged detection plus budgeted exact solving."""
    budget = SolveBudget(node_cap=node_cap)  # refuses a bad cap before any LP
    # for an integer k, f_v > k holds exactly when ceil(f_v) > k
    ceilings = [ceil(f) for f in lp_values(inst, jobs=jobs)]
    iterations: list[tuple[int, int, str]] = []
    for k in range(inst.n + 1):
        s_set = frozenset(v for v, c in enumerate(ceilings) if c > k)
        residual_budget = k - len(s_set)
        if residual_budget < 0:
            iterations.append((k, len(s_set), "detected-exceeds-k"))
            continue
        sub, back = restrict_instance(inst, s_set)
        y = solve_exact(sub, replace(budget, max_k=residual_budget))
        if y is None:
            iterations.append((k, len(s_set), "residual-unsolved"))
            continue
        iterations.append((k, len(s_set), "solved"))
        solution = frozenset(s_set | {back[u] for u in y})
        return DriverReport(
            solution=solution,
            opt=len(solution),
            detected=s_set,
            residual_budget=residual_budget,
            iterations=tuple(iterations),
        )
    raise AssertionError("the sweep must succeed at k = n at the latest")
