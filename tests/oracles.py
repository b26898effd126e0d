"""Independent brute-force baselines used to validate the library.

Everything here recomputes answers from first principles (subset and path
enumeration, networkx traversals, float LP via scipy, a dense `Fraction`
simplex, matchings for the vertex-cover LP) without touching the library's
solvers, so agreement is meaningful.  `cheapest_paths`, a single-source
label-setting search under per-vertex costs of any type, was the library's
second path search until the rounding's heavy sets moved onto
`problems.cheapest_obstacle`; here it is the reference that the other
path references are built on, and it is itself checked against path
enumeration.  The `Fraction` separation oracle is the library's earlier
scan, kept to check that pricing in integer numerators changed no answer,
and it runs on `cheapest_paths`.  So are `shortest_weighted_path` and
`sequential_cheapest_obstacle`, the library's earlier path and cycle
obstacle search, one `cheapest_paths` search per source or least vertex,
kept to check that one heap for every origin changed no answer; for vertex
cover and cograph deletion it scans every vertex pair and quadruple.
So are `scan_violated` and
`scan_packing_lb`: exact search's earlier full scans over vertex sets, kept
to check that per-node surviving obstacles held as bitmasks and bounded path
searches changed no answer; the packing's vertex-cover LP bound there comes
from the networkx matching.  And so is `dovetail_reduce`: the driver's
earlier loop over a residual budget, kept to check that one ascending sweep
over the guess k reaches the same first success with the same exact solver.
So are `min_weight_cycle_through`, the oracle's earlier cycle search over
the whole graph, which `fraction_violated_obstacle` still runs, and
`per_vertex_lp_values`, detection's earliest one LP per vertex, kept to
check that the vertex-cover matching, the zero rule and the warm starts
from the unpinned tableau changed no f_v.  And `fraction_cutting_planes`, the cutting-plane loop's
earlier round trip through `Fraction` weights and the public oracle, run on
the dense reference simplex, kept to check that pricing the kernel's
numerators directly changed no cut.  `solve_restricted`, the LP over an
explicit pool, runs the library's simplex kernel: with every obstacle
enumerated it is the reference optimum for the cutting-plane loop.
`lex_least_by_restriction` is exact search's earlier lexicographic pass,
one vertex at a time, rebuilt from the driver's `restrict_instance` and
`opt_value` with forbidden vertices: it checks the range-refuting pass at
sizes subset enumeration cannot reach, through the minimum pass only.
`aux_min_vertex_separator` is the rounders' earlier separator: an
auxiliary graph with a super-source and a super-sink, cut by bottleneck
augmentations and a separate reach search, kept to check that the
library's unit augmentations on the graph itself return the same set.
"""

import heapq
from fractions import Fraction
from itertools import combinations
from math import ceil
from typing import AbstractSet, Iterable, Iterator, Sequence

import networkx as nx

from essentia.detection import lp_values
from essentia.driver import restrict_instance
from essentia.errors import (
    InfeasibleSeparatorError,
    InputError,
    IterationCapError,
    PinInfeasibleError,
    PreconditionError,
)
from essentia.exact import SolveBudget, opt_value, solve_exact
from essentia.graphs import Graph
from essentia.lp import FractionalSolution, solve
from essentia.problems import (
    Instance,
    Problem,
    all_induced_p4s,
    find_violated_obstacle,
    listed_obstacles,
)
from essentia.simplex import PackingSimplex


def to_nx(g: Graph, removed=frozenset()):
    gx = nx.DiGraph() if g.directed else nx.Graph()
    gx.add_nodes_from(u for u in range(g.n) if u not in removed)
    gx.add_edges_from(
        (u, v) for u, v in g.edges if u not in removed and v not in removed
    )
    return gx


def induces_p4(g: Graph, quad) -> bool:
    """Degree-sequence test: exactly 3 edges, degrees (1,1,2,2), connected."""
    sub = [(u, v) for u, v in combinations(sorted(quad), 2) if g.has_arc(u, v)]
    if len(sub) != 3:
        return False
    deg = {u: 0 for u in quad}
    for u, v in sub:
        deg[u] += 1
        deg[v] += 1
    if sorted(deg.values()) != [1, 1, 2, 2]:
        return False
    gx = nx.Graph(sub)
    gx.add_nodes_from(quad)
    return nx.is_connected(gx)


def naive_has_p4(g: Graph, removed=frozenset()) -> bool:
    alive = [u for u in range(g.n) if u not in removed]
    return any(induces_p4(g, quad) for quad in combinations(alive, 4))


def naive_is_solution(inst: Instance, x) -> bool:
    removed = frozenset(x)
    g = inst.graph
    if inst.problem in (Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT):
        gx = to_nx(g, removed)
        for s, t in inst.terminals:
            if s in removed or t in removed:
                continue
            if nx.has_path(gx, s, t):
                return False
        return True
    if inst.problem is Problem.COGRAPH_DELETION:
        return not naive_has_p4(g, removed)
    if inst.problem is Problem.VERTEX_COVER:
        return all(u in removed or v in removed for u, v in g.edges)
    if inst.problem is Problem.DFVS:
        return nx.is_directed_acyclic_graph(to_nx(g, removed))
    raise AssertionError(inst.problem)


def naive_opt(inst: Instance, forbidden=frozenset()):
    """Minimum solution size by subset enumeration; None if none exists."""
    usable = [u for u in range(inst.n) if u not in forbidden]
    for k in range(len(usable) + 1):
        for sub in combinations(usable, k):
            if naive_is_solution(inst, frozenset(sub)):
                return k
    return None


def naive_min_solution(inst: Instance, forbidden=frozenset()):
    """Lexicographically least minimum solution by ordered enumeration."""
    usable = [u for u in range(inst.n) if u not in forbidden]
    for k in range(len(usable) + 1):
        for sub in combinations(usable, k):  # lexicographic within each size
            if naive_is_solution(inst, frozenset(sub)):
                return frozenset(sub)
    return None


def all_simple_paths(g: Graph, s: int, t: int, removed=frozenset()):
    if s in removed or t in removed:
        return
    if s == t:
        yield (s,)
        return
    gx = to_nx(g, removed)
    for path in nx.all_simple_paths(gx, s, t):
        yield tuple(path)


def naive_shortest_weighted_path(g: Graph, w, sources, targets, removed=frozenset()):
    """Minimum vertex-weight path by exhaustive simple-path enumeration,
    over the networkx graph `to_nx(g, removed)`."""
    best = None
    for s in sorted(set(sources)):
        for t in sorted(set(targets)):
            for path in all_simple_paths(g, s, t, removed):
                cand = (sum((w[u] for u in path), Fraction(0)), path)
                if best is None or cand < best:
                    best = cand
    return best


def cheapest_paths(
    g: Graph,
    cost: Sequence,
    sources: Iterable[int],
    removed: AbstractSet[int] = frozenset(),
) -> Iterator[tuple]:
    """Settled labels of a label-setting search under per-vertex costs.

    A label is (cost, path): the path's vertex costs summed, endpoints
    included, so a lone source s has label (cost[s], (s,)).  `cost` is any
    nonnegative per-vertex sequence (exact `Fraction` weights, 0/1 ints);
    it is trusted, not validated.  Vertices in `removed` are neither
    started from nor entered.  Every vertex reachable from the surviving
    sources is yielded once, with its cheapest path and, among equal-cost
    paths, the lexicographically least one.  Labels come in nondecreasing
    (cost, path) order, so a consumer may stop at the first label it wants.
    """
    heap = [(cost[s], (s,)) for s in sorted(set(sources)) if s not in removed]
    best = {label[1][0]: label for label in heap}
    heapq.heapify(heap)
    settled: set[int] = set()
    adj, push, pop = g.adj, heapq.heappush, heapq.heappop
    # Extending a path adds a nonnegative cost and lengthens the tuple, so
    # the (cost, path) key is monotone along arcs: the first pop of a vertex
    # is final.
    while heap:
        label = pop(heap)
        dist, path = label
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        yield label
        for v in adj[u]:
            if v in settled or v in removed:
                continue
            cand = (dist + cost[v], path + (v,))
            if v not in best or cand < best[v]:
                best[v] = cand
                push(heap, cand)


def shortest_weighted_path(g: Graph, w, sources, targets, removed=frozenset(), below=None):
    """Minimum-weight simple path from any source to any target, as (cost, path).

    The library's earlier single search: the first label of
    `cheapest_paths` that ends in a target, so a lone vertex that is
    both source and target is a path of weight w(s), and equal-weight paths
    resolve to the lexicographically least vertex sequence.  Returns None
    when no target is reachable without entering `removed`.  With a `below`
    label, returns None unless the answer is less than it, and stops at the
    first settled label that is not.
    """
    target_set = set(targets) - removed
    if not target_set:
        return None
    for label in cheapest_paths(g, w, sources, removed):
        if below is not None and label >= below:
            return None
        if label[1][-1] in target_set:
            return label
    return None


def p4_order(g: Graph, quad) -> tuple:
    """The witness order a-b-c-d of a 4-set inducing a P4, middle edge b < c:
    b and c are its two vertices of degree 2 in the induced subgraph."""
    inner = sorted(u for u in quad if sum(g.has_arc(u, x) for x in quad) == 2)
    b, c = inner
    a = next(u for u in quad if u not in inner and g.has_arc(u, b))
    d = next(u for u in quad if u not in inner and g.has_arc(u, c))
    return (a, b, c, d)


def sequential_cheapest_obstacle(inst: Instance, cost, removed=frozenset(), below=None):
    """Reference for `problems.cheapest_obstacle`: one search per origin.

    The library's earlier loop.  The multicuts search from each source in
    increasing order; DFVS, for each v in increasing order, for the cycles
    whose least vertex is v, in G[v..n-1] from v's out-neighbours above v.
    A later origin gives a larger order at equal cost, so once an obstacle
    is found each later search is bounded by a strictly cheaper label.
    Vertex cover and cograph deletion scan every vertex pair and quadruple
    by brute force: the adjacent pairs, and the 4-sets passing `induces_p4`
    in their `p4_order`.
    """
    g = inst.graph
    best = None
    limit = None if below is None else (below,)
    if inst.problem is Problem.DFVS:
        region = set(removed)  # removed and every vertex below v
        for v in range(g.n):
            if v in region:
                continue
            starts = [u for u in g.adj[v] if u not in region]
            if starts:
                found = shortest_weighted_path(g, cost, starts, (v,), region, limit)
                if found is not None:
                    best = (found[0], (v,) + found[1][:-1])
                    limit = (best[0],)
            region.add(v)
    elif inst.problem.uses_terminals:
        for s, targets in inst.targets_by_source:
            if s in removed:
                continue
            found = shortest_weighted_path(g, cost, (s,), targets, removed, limit)
            if found is not None:
                best = found
                limit = (best[0],)
    else:
        if inst.problem is Problem.VERTEX_COVER:
            listed = [e for e in combinations(range(g.n), 2) if g.has_arc(*e)]
        else:
            quads = combinations(range(g.n), 4)
            listed = [p4_order(g, q) for q in quads if induces_p4(g, q)]
        priced = [(sum(cost[u] for u in ob), ob) for ob in listed if removed.isdisjoint(ob)]
        best = min(priced, default=None)
        if best is not None and limit is not None and best >= limit:
            best = None
    return best


def naive_min_cycle_through(g: Graph, w, v):
    best = None
    for cycle in nx.simple_cycles(to_nx(g)):
        if v not in cycle:
            continue
        weight = sum((w[u] for u in cycle), Fraction(0))
        k = cycle.index(v)
        rotated = tuple(cycle[k:] + cycle[:k])
        cand = (weight, rotated)
        if best is None or cand < best:
            best = cand
    return best


def naive_min_separator_size(g: Graph, sources, targets, forbidden=frozenset()):
    """Smallest vertex set meeting every sources->targets path; None if stuck."""
    sources, targets = set(sources), set(targets)

    def separates(x):
        if sources & targets - x:
            return False  # a shared vertex outside x is an uncut trivial path
        gx = to_nx(g, frozenset(x))
        for s in sources - x:
            for t in targets - x:
                if nx.has_path(gx, s, t):
                    return False
        return True

    usable = [u for u in range(g.n) if u not in forbidden]
    for k in range(len(usable) + 1):
        for sub in combinations(usable, k):
            if separates(set(sub)):
                return k
    return None


def aux_min_vertex_separator(g: Graph, sources, targets, forbidden=frozenset()):
    """`graphs.min_vertex_separator`'s earlier formulation, on an auxiliary graph.

    The library's rounders once built it: g (both directions of each
    undirected edge) plus a forbidden super-source feeding every source and
    a forbidden super-sink fed by every target, cut by the earlier max-flow
    from the one to the other.  That flow scans the residual arcs in sorted
    order, augments each path by its bottleneck and finds the cut with a
    separate search for the residual reach.  Raises InfeasibleSeparatorError
    as the library does.
    """
    n = g.n + 2
    s_star, t_star = g.n, g.n + 1
    arcs = [(a, b) for a in range(g.n) for b in g.adj[a]]
    arcs += [(s_star, u) for u in sorted(set(sources))]
    arcs += [(u, t_star) for u in sorted(set(targets))]
    blocked = set(forbidden) | {s_star, t_star}
    big = n + 1
    source_node, sink_node = 2 * s_star, 2 * t_star + 1
    cap = [dict() for _ in range(2 * n)]

    def add(a, b, c):
        cap[a][b] = cap[a].get(b, 0) + c
        cap[b].setdefault(a, 0)

    for u in range(n):
        add(2 * u, 2 * u + 1, big if u in blocked else 1)
    for a, b in arcs:
        add(2 * a + 1, 2 * b, big)
    flow = 0
    while True:
        parent = {source_node: source_node}
        queue = [source_node]
        for a in queue:
            if sink_node in parent:
                break
            for b in sorted(cap[a]):
                if b not in parent and cap[a][b] > 0:
                    parent[b] = a
                    queue.append(b)
        if sink_node not in parent:
            break
        path = [sink_node]
        while path[-1] != source_node:
            path.append(parent[path[-1]])
        steps = [(a, b) for b, a in zip(path, path[1:])]  # arcs a -> b of the path
        bottleneck = min(cap[a][b] for a, b in steps)
        for a, b in steps:
            cap[a][b] -= bottleneck
            cap[b][a] += bottleneck
        flow += bottleneck
        if flow > n:
            raise InfeasibleSeparatorError("every separator would need a forbidden vertex")
    reach = {source_node}
    queue = [source_node]
    for a in queue:
        for b in cap[a]:
            if b not in reach and cap[a][b] > 0:
                reach.add(b)
                queue.append(b)
    cut = frozenset(u for u in range(g.n) if 2 * u in reach and 2 * u + 1 not in reach)
    if len(cut) != flow:
        raise AssertionError("min-cut size must equal the max-flow value")
    return cut


def naive_all_obstacle_sets(inst: Instance):
    """Every obstacle vertex set of the instance (exponential; keep n small)."""
    g = inst.graph
    out = set()
    if inst.problem in (Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT):
        for s, t in inst.terminals:
            for path in all_simple_paths(g, s, t):
                out.add(frozenset(path))
    elif inst.problem is Problem.COGRAPH_DELETION:
        for quad in combinations(range(g.n), 4):
            if induces_p4(g, quad):
                out.add(frozenset(quad))
    elif inst.problem is Problem.VERTEX_COVER:
        out = {frozenset(e) for e in g.edges}
    elif inst.problem is Problem.DFVS:
        out = {frozenset(c) for c in nx.simple_cycles(to_nx(g))}
    else:
        raise AssertionError(inst.problem)
    return out


def naive_minimal_obstacle_sets(inst: Instance):
    sets = naive_all_obstacle_sets(inst)
    return {s for s in sets if not any(o < s for o in sets)}


def float_lp_value(obstacle_sets, n, pinned=None):
    """Full-enumeration covering LP solved in floating point (scipy)."""
    from scipy.optimize import linprog

    if not obstacle_sets:
        return 0.0
    rows = sorted(obstacle_sets, key=sorted)
    a_ub = [[-1.0 if u in s else 0.0 for u in range(n)] for s in rows]
    b_ub = [-1.0] * len(rows)
    bounds = [(0.0, 0.0) if u == pinned else (0.0, 1.0) for u in range(n)]
    res = linprog([1.0] * n, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, f"float LP failed: {res.message}"
    return res.fun


def nx_double_cover_matching(g: Graph, removed=frozenset()):
    """Maximum matching size of the bipartite double cover of g - removed.

    Left copy u and right copy n + v are joined for every arc u->v (both
    ways for an undirected edge); networkx's Hopcroft-Karp does the rest.
    """
    n = g.n
    alive = [u for u in range(n) if u not in removed]
    cover = nx.Graph()
    cover.add_nodes_from(alive + [n + u for u in alive])
    for a, b in g.edges:
        if a not in removed and b not in removed:
            cover.add_edge(a, n + b)
            if not g.directed:
                cover.add_edge(b, n + a)
    matching = nx.bipartite.hopcroft_karp_matching(cover, top_nodes=alive)
    return len(matching) // 2  # the dict holds each matched edge both ways


def vertex_cover_lp_values(inst: Instance):
    """Every pinned vertex-cover LP value by matching, with no LP solved.

    Pinning v to 0 forces all of N(v) to 1 and leaves the LP of G - N[v].
    That LP is half-integral (Nemhauser-Trotter): its value is half the
    maximum matching nu(H) of the bipartite double cover H of G - N[v], taken
    from networkx's Hopcroft-Karp.  So f_v = |N(v)| + nu(H) / 2.
    """
    g = inst.graph
    assert inst.problem is Problem.VERTEX_COVER
    return tuple(
        len(g.neighbors(v)) + Fraction(nx_double_cover_matching(g, g.neighbors(v) | {v}), 2)
        for v in range(g.n)
    )


class DenseFractionSimplex:
    """Reference packing-dual simplex: dense `Fraction` rows, Bland's rule.

    Same interface and the same pivoting rule as `essentia.simplex.
    PackingSimplex` (vertex rows created lazily, columns in insertion order,
    lowest eligible entering column, ratio ties broken on the basic column),
    so both must reach the same bases and the same exact values.
    """

    def __init__(self, pinned=None):
        self.pinned = pinned
        self.slack_col = {}
        self.tab = []
        self.rhs = []
        self.obj = []  # reduced costs, one per column
        self.basis = []  # basic column of each row
        self.value = Fraction(0)
        self.ncols = 0

    def _new_row(self, u):
        for row in self.tab:
            row.append(Fraction(0))
        self.obj.append(Fraction(0))
        col = self.ncols
        self.ncols += 1
        self.slack_col[u] = col
        new_row = [Fraction(0)] * self.ncols
        new_row[col] = Fraction(1)
        self.tab.append(new_row)
        self.rhs.append(Fraction(1))
        self.basis.append(col)

    def add_constraint(self, vertices):
        members = sorted(set(vertices) - {self.pinned})
        if not members:
            raise PinInfeasibleError("constraint consists of the pinned vertex alone")
        for u in members:
            if u not in self.slack_col:
                self._new_row(u)
        cols = [self.slack_col[u] for u in members]
        transformed = [sum(row[c] for c in cols) for row in self.tab]
        reduced = 1 + sum(self.obj[c] for c in cols)
        for row, entry in zip(self.tab, transformed):
            row.append(entry)
        self.obj.append(reduced)
        self.ncols += 1

    def _pivot(self, i, j):
        piv = self.tab[i][j]
        if piv != 1:
            inv = 1 / piv
            self.tab[i] = [a * inv for a in self.tab[i]]
            self.rhs[i] *= inv
        prow, prhs = self.tab[i], self.rhs[i]
        for k, row in enumerate(self.tab):
            if k == i:
                continue
            f = row[j]
            if f:
                self.tab[k] = [a - f * b if b else a for a, b in zip(row, prow)]
                self.rhs[k] -= f * prhs
        f = self.obj[j]
        self.obj = [a - f * b if b else a for a, b in zip(self.obj, prow)]
        self.value += f * prhs
        self.basis[i] = j

    def _leaving_row(self, enter):
        leave, best = None, None
        for i, row in enumerate(self.tab):
            a = row[enter]
            if a > 0:
                key = (self.rhs[i] / a, self.basis[i])
                if best is None or key < best:
                    best, leave = key, i
        if leave is None:
            raise AssertionError("packing LP reported unbounded")
        return leave

    def optimize(self):
        while True:
            enter = next((j for j, r in enumerate(self.obj) if r > 0), None)
            if enter is None:
                return
            self._pivot(self._leaving_row(enter), enter)

    def with_pin(self, v):
        """A copy with x_v = 0 added, by the kernel's rule; `self` is left as it was.

        v's row goes; a nonbasic slack of v is first negated and entered by
        the ratio test, and the row it became basic in goes.  Its column
        stays behind, all zero with reduced cost 0, so it never enters again.
        """
        new = DenseFractionSimplex(v)
        new.slack_col = dict(self.slack_col)
        new.tab = [row[:] for row in self.tab]
        new.rhs = list(self.rhs)
        new.obj = list(self.obj)
        new.basis = list(self.basis)
        new.value = self.value
        new.ncols = self.ncols
        col = new.slack_col.pop(v, None)
        if col is None:
            return new
        if col in new.basis:
            i = new.basis.index(col)
        else:
            for row in new.tab:
                row[col] = -row[col]
            new.obj[col] = -new.obj[col]
            i = new._leaving_row(col)
            new._pivot(i, col)
        del new.tab[i], new.rhs[i], new.basis[i]
        return new

    def covering_solution(self, n):
        x = [Fraction(0)] * n
        for u, c in self.slack_col.items():
            x[u] = -self.obj[c]
        return tuple(x)

    def objective(self):
        return self.value


def min_weight_cycle_through(g: Graph, w, v):
    """Minimum-weight directed simple cycle containing v, as (cost, cycle).

    The separation oracle's earlier cycle search: the cheapest path from an
    out-neighbour of v back to v over the whole graph, rotated to start at
    v.  Returns None when v lies on no cycle.
    """
    if not g.directed:
        raise PreconditionError("cycle search requires a directed graph")
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range (n={g.n})")
    found = shortest_weighted_path(g, w, g.adj[v], (v,)) if g.adj[v] else None
    if found is None:
        return None
    dist, path = found
    return dist, (v,) + path[:-1]


def canonical_cycle(cycle):
    """Rotate a directed cycle so its smallest vertex leads."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def per_vertex_lp_values(inst: Instance):
    """Every f_v from its own pinned LP, one solve per vertex from an empty pool.

    Detection's earliest loop: no matching, no unpinned LP, no zero rule and
    no warm start, so every f_v comes from the simplex and the oracle alone.
    """
    return tuple(solve(inst, v).value for v in range(inst.n))


def solve_restricted(pool, n, pinned=None):
    """Exact optimum of the finite covering LP over an explicit pool.

    The enumerated-LP reference: fed every obstacle, it gives the LP optimum
    that `essentia.lp.solve` must reach by cutting planes.  Pool entries are
    vertex iterables, such as the witnesses in a solution's `added`.  It
    runs the library's simplex kernel, so it checks the cutting-plane loop,
    not the kernel.  The all-ones vector is feasible unless some pooled
    constraint equals the pinned vertex alone; that case raises
    PinInfeasibleError.
    """
    engine = PackingSimplex().with_pin(pinned)
    for ob in pool:
        members = set(ob)
        for u in members:
            if not 0 <= u < n:
                raise InputError(f"pooled constraint vertex {u} out of range (n={n})")
        engine.add_constraint(members)
    engine.optimize()
    return FractionalSolution(engine.covering_solution(n), engine.objective())


def fraction_cutting_planes(inst: Instance, pinned=None):
    """Reference `essentia.lp.solve`: every round goes through `Fraction` weights.

    The loop `solve` ran before it passed the kernel's numerators straight
    to the oracle: read the covering solution as `Fraction`s, hand it to the
    public `find_violated_obstacle` (which validates it and takes its least
    common denominator again), and add the cut it returns.  It runs on
    `DenseFractionSimplex` from no constraint at all and returns the cuts
    it adds, in order, as the solution's `added`: the witnesses the oracle
    returns.
    """
    n = inst.n
    max_cuts = 10 * n * n
    engine = DenseFractionSimplex(pinned)
    added = []
    while True:
        x = engine.covering_solution(n)
        violated = find_violated_obstacle(inst, x)
        if violated is None:
            return FractionalSolution(x, engine.objective(), tuple(added))
        if len(added) >= max_cuts:
            raise IterationCapError(f"no convergence within {max_cuts} cuts (n={n})")
        added.append(violated)
        engine.add_constraint(violated)
        engine.optimize()


def fraction_violated_obstacle(inst: Instance, w):
    """Reference separation oracle that prices obstacles in `Fraction` sums.

    The scan `essentia.problems.find_violated_obstacle` made before it moved
    to integer numerators over one denominator: same families, same
    (weight, witness) tie-break, weights compared with 1 directly, and the
    witness of the lightest obstacle as the answer.  It does not validate
    `w`.
    """
    g = inst.graph
    p = inst.problem
    best = None
    if p in (Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT):
        by_source = {}
        for s, t in inst.terminals:
            by_source.setdefault(s, []).append(t)
        for s in sorted(by_source):
            found = shortest_weighted_path(g, w, (s,), by_source[s])
            if found is not None and (best is None or found < best):
                best = found
    elif p is Problem.COGRAPH_DELETION:
        for quad in all_induced_p4s(g):
            wt = w[quad[0]] + w[quad[1]] + w[quad[2]] + w[quad[3]]
            if best is None or (wt, quad) < best:
                best = (wt, quad)
    elif p is Problem.VERTEX_COVER:
        for u, v in g.edges:
            wt = w[u] + w[v]
            if best is None or (wt, (u, v)) < best:
                best = (wt, (u, v))
    elif p is Problem.DFVS:
        for v in range(g.n):
            found = min_weight_cycle_through(g, w, v)
            if found is None:
                continue
            cand = (found[0], canonical_cycle(found[1]))
            if best is None or cand < best:
                best = cand
    else:
        raise AssertionError(p)
    if best is None or best[0] >= 1:
        return None
    return best[1]


def scan_violated(search, removed, blocked):
    """Reference branch obstacle of `essentia.exact._Search`, recomputed in full.

    The scan `_Search._violated` made before each search node kept its
    surviving obstacles: every enumerated obstacle is tested against
    `removed`, and every path or cycle search runs to its first target.
    The enumerated obstacles are rebuilt as vertex sets from
    `problems.listed_obstacles`, not read from the search's own list.
    DFVS searches the cheapest cycle through each vertex over the whole
    graph, with no least-vertex restriction, and compares cycles in their
    canonical rotation.  Returns (sorted deletable vertices, obstacle vertex
    set) with the fewest deletable vertices, ties to the least witness, or
    None.  Like the search it checks, it stops the scan of the enumerated
    obstacles at the first count <= 1, and takes the least path or cycle
    over every search.
    """
    p = search.inst.problem
    g = search.g
    listed = listed_obstacles(search.inst)
    if listed is not None:
        best = None
        for order in listed:
            vs = frozenset(order)
            if vs & removed:
                continue
            allowed = [u for u in order if u not in blocked]
            key = (len(allowed), order)
            if best is None or key < best[0]:
                best = (key, allowed, vs)
                if key[0] <= 1:
                    break
        if best is None:
            return None
        return sorted(set(best[1])), best[2]
    cost = [0 if u in blocked else 1 for u in range(g.n)]
    best_path = None
    if p in (Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT):
        for s, targets in search.inst.targets_by_source:
            found = shortest_weighted_path(g, cost, (s,), targets, removed)
            if found is not None and (best_path is None or found < best_path):
                best_path = found
    elif p is Problem.DFVS:
        for v in range(g.n):
            if v in removed:
                continue
            found = shortest_weighted_path(g, cost, g.adj[v], (v,), removed)
            if found is None:
                continue
            cand = (found[0], canonical_cycle((v,) + found[1][:-1]))
            if best_path is None or cand < best_path:
                best_path = cand
    if best_path is None:
        return None
    vs = frozenset(best_path[1])
    return sorted(u for u in vs if u not in blocked), vs


def scan_packing_lb(search, removed, blocked, need, infeasible):
    """Reference packing bound of `essentia.exact._Search`, recomputed in full.

    Greedily packs violated obstacles with pairwise disjoint deletable sets
    (for the path families, each found by `scan_violated` with the packed
    deletable vertices removed), up to `need`; `infeasible` for an
    undeletable one.  On vertex cover a count short of `need` is raised to
    ceil(ν/2) for the double cover's matching ν of G - removed.
    """
    listed = listed_obstacles(search.inst)
    if listed is not None:
        used = set()
        count = 0
        for vs in map(frozenset, listed):
            if vs & removed:
                continue
            allowed = vs - blocked
            if not allowed:
                return infeasible
            if allowed & used:
                continue
            used |= allowed
            count += 1
            if count >= need:
                return count
        if search.inst.problem is Problem.VERTEX_COVER:
            return max(count, ceil(Fraction(nx_double_cover_matching(search.g, removed), 2)))
        return count
    if need > search.g.n - len(removed | blocked):
        return 0
    gone = set(removed)
    count = 0
    while count < need:
        res = scan_violated(search, frozenset(gone), blocked)
        if res is None:
            break
        allowed, _ = res
        if not allowed:
            return infeasible
        gone |= set(allowed)
        count += 1
    return count


def dovetail_reduce(inst: Instance):
    """Reference driver: dovetail over a residual budget b, then over k >= b.

    The (b, k) double loop `essentia.driver.solve_with_detection` ran before
    it became one ascending sweep over k.  At budget b it tries every k whose
    residual budget k - |S(k)| lies in [0, b], forcing the detected set S(k)
    and asking `solve_exact` for the rest.  Returns the solution, the
    detected set and the residual budget of the first success, and the k of
    every `solve_exact` call in call order.
    """
    ceilings = [ceil(f) for f in lp_values(inst)]
    tried = []
    for b in range(inst.n + 1):
        for k in range(b, inst.n + 1):
            s_set = frozenset(v for v, c in enumerate(ceilings) if c > k)
            residual_budget = k - len(s_set)
            if not 0 <= residual_budget <= b:
                continue
            sub, back = restrict_instance(inst, s_set)
            tried.append(k)
            y = solve_exact(sub, SolveBudget(max_k=residual_budget))
            if y is not None:
                return s_set | {back[u] for u in y}, s_set, residual_budget, tried
    raise AssertionError("the dovetail must succeed at b = k = n at the latest")


def lex_least_by_restriction(inst: Instance, forbidden=frozenset(), max_k=None):
    """Reference answer of `essentia.exact.solve_exact`, one vertex at a time.

    The lexicographically least minimum solution avoiding `forbidden`, or
    None when none fits in `max_k`.  Vertex v joins the prefix when deleting
    the prefix and v leaves a residual instance that its remaining share of
    the minimum size solves, avoiding `forbidden`; every size comes from
    `opt_value` on an instance from `restrict_instance`.
    """
    forbidden = frozenset(forbidden)
    size = opt_value(inst, forbidden=forbidden)
    if size is None or (max_k is not None and size > max_k):
        return None
    prefix = set()
    for v in range(inst.n):
        if len(prefix) == size:
            break
        if v in forbidden:
            continue
        sub, keep = restrict_instance(inst, frozenset(prefix | {v}))
        new = {u: i for i, u in enumerate(keep)}
        rest = opt_value(sub, forbidden=frozenset(new[u] for u in forbidden))
        if rest is not None and rest <= size - len(prefix) - 1:
            prefix.add(v)
    return frozenset(prefix)
