"""Search-space-reduced exact solving: detect, force, then solve the rest.

The driver dovetails over a residual budget b = 0, 1, 2, ...: for each b it
sweeps the guess k upward, runs detection, and whenever the undetected part
k - |S| fits inside b it forces S (deleting it from the instance) and asks
the exact solver for a residual solution of size at most k - |S|.  For any
vertex hitting set problem, Y solves the residual exactly when S union Y
solves the original, and below the optimum no residual solution can exist,
so the first success is an optimal solution.  The exponential work is
therefore governed by the final budget b, which detection keeps close to the
number of non-essential vertices in an optimal solution.

Detection inside the loop reuses one set of per-vertex LP values: f_v does
not depend on k, only the selection threshold does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Optional

from .detection import lp_values
from .exact import SolveBudget, default_node_cap, solve_exact
from .graphs import Graph
from .problems import Instance


@dataclass(frozen=True)
class DriverReport:
    """Outcome of a driver run, including the per-iteration trace."""

    solution: frozenset[int]
    opt: int
    detected: frozenset[int]
    residual_budget: int
    iterations: tuple[tuple[int, int, int, str], ...]  # (b, k, |S|, outcome)


def restrict_instance(inst: Instance, removed: frozenset[int]) -> tuple[Instance, list[int]]:
    """Delete a vertex set, dropping the obstacles it already destroys.

    Returns the reindexed instance and the new-to-old vertex map.  Terminal
    pairs with a deleted endpoint are already separated and disappear.
    """
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
    inst: Instance, jobs: int = 1, node_cap: Optional[int] = None
) -> DriverReport:
    """Optimal solution via staged detection plus budgeted exact solving."""
    n = inst.n
    cap = node_cap if node_cap is not None else default_node_cap()
    # for an integer k, f_v > k holds exactly when ceil(f_v) > k
    ceilings = [ceil(f) for f in lp_values(inst, jobs=jobs)]

    def selected_at(k: int) -> frozenset[int]:
        return frozenset(v for v, c in enumerate(ceilings) if c > k)

    iterations: list[tuple[int, int, int, str]] = []
    for b in range(n + 1):
        for k in range(b, n + 1):
            s_set = selected_at(k)
            residual_budget = k - len(s_set)
            if residual_budget < 0:
                iterations.append((b, k, len(s_set), "detected-exceeds-k"))
                continue
            if residual_budget > b:
                iterations.append((b, k, len(s_set), "deferred"))
                continue
            sub, back = restrict_instance(inst, s_set)
            y = solve_exact(sub, SolveBudget(max_k=residual_budget, node_cap=cap))
            if y is None:
                iterations.append((b, k, len(s_set), "residual-unsolved"))
                continue
            iterations.append((b, k, len(s_set), "solved"))
            solution = frozenset(s_set | {back[u] for u in y})
            return DriverReport(
                solution=solution,
                opt=len(solution),
                detected=s_set,
                residual_budget=residual_budget,
                iterations=tuple(iterations),
            )
    raise AssertionError("the sweep must succeed at b = k = n at the latest")
