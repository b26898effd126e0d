"""Vertex hitting set problems and their separation oracles.

Each of the five supported problems asks for a minimum vertex set meeting
every member of a graph-implicit obstacle family:

===================  ==========  =======================================
problem              graph       obstacle family
===================  ==========  =======================================
vertex multicut      undirected  vertex sets of terminal-pair paths
directed multicut    directed    vertex sets of directed terminal paths
cograph deletion     undirected  vertex sets inducing a 4-vertex path
vertex cover         undirected  edges
feedback vertex set  directed    vertex sets of directed simple cycles
===================  ==========  =======================================

An `Instance` reads its terminal pairs, and `is_solution` and the oracle
their vertices, through the input checks of `graphs`.  A solution is a
vertex set that meets every obstacle, and the package asks
the families only one question, answered in one place: `cheapest_obstacle`
returns the least (cost, order) obstacle of G - R under integer vertex
costs, or None when none is cheaper than a bound.  The listed families
(edges, and the induced P4s `all_induced_p4s` caches per graph) are
scanned from `listed_obstacles`; the terminal paths and directed cycles
are searched for, endpoints included, with one heap for the searches from
every source or least vertex, the package's only weighted path search.
Its callers: `is_solution` (all costs 0: is any obstacle left?), the
separation oracle (its cuts), exact search (its branch obstacles, costing
the deletable vertices 1, steered on the multicuts by `target_potential`)
and the rounding's heavy sets (one single-pair multicut instance per
vertex).  The oracle is the workhorse of the cutting-plane solver: given
rational vertex weights it either certifies that every obstacle weighs at
least 1 (the right-hand side of every covering constraint) or produces a
minimum-weight obstacle lighter than that, as its witness tuple.  It
prices obstacles in integer numerators over one common denominator: the
public `find_violated_obstacle` validates `Fraction` weights once and puts
them over their least common denominator, and the cutting-plane loop asks
`cheapest_obstacle` itself with the numerators it reads off the simplex
kernel.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .errors import InputError
from .graphs import Graph, VertexWeights, _vertex_pairs, _vertex_set, check_weights


class Problem(Enum):
    VERTEX_MULTICUT = "vertex-multicut"
    DIRECTED_VERTEX_MULTICUT = "directed-vertex-multicut"
    COGRAPH_DELETION = "cograph-deletion"
    VERTEX_COVER = "vertex-cover"
    DFVS = "dfvs"

    @property
    def directed(self) -> bool:
        return self in (Problem.DIRECTED_VERTEX_MULTICUT, Problem.DFVS)

    @property
    def uses_terminals(self) -> bool:
        return self in (Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT)

    @classmethod
    def from_tag(cls, tag: str) -> "Problem":
        for p in cls:
            if p.value == tag:
                return p
        raise InputError(f"unknown problem tag {tag!r}")


@dataclass(frozen=True)
class Instance:
    """A problem-tagged graph, plus terminal pairs for the multicut problems
    and, derived from them, each source with its targets, sources ascending.

    Terminal pairs are stored as tuples; terminals that are not an iterable
    of pairs, or a pair whose ids are not in-range ints (bools refused), is
    an InputError, and nothing is coerced."""

    problem: Problem
    graph: Graph
    terminals: tuple[tuple[int, int], ...] = field(default=())
    targets_by_source: tuple[tuple[int, frozenset[int]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.graph.directed != self.problem.directed:
            kind = "a directed" if self.problem.directed else "an undirected"
            raise InputError(f"{self.problem.value} requires {kind} graph")
        terms = _vertex_pairs(self.terminals, self.graph.n, "terminals")
        if terms and not self.problem.uses_terminals:
            raise InputError(f"{self.problem.value} does not take terminal pairs")
        groups: dict[int, set[int]] = {}
        for pos, (s, t) in enumerate(terms):
            if s == t:
                raise InputError(f"terminals[{pos}]: pair endpoints coincide: {s}")
            if t in groups.setdefault(s, set()):
                raise InputError(f"terminals[{pos}]: duplicate pair ({s}, {t})")
            groups[s].add(t)
        object.__setattr__(self, "terminals", tuple(terms))
        by_source = tuple((s, frozenset(ts)) for s, ts in sorted(groups.items()))
        object.__setattr__(self, "targets_by_source", by_source)

    @property
    def n(self) -> int:
        return self.graph.n


# ---------------------------------------------------------------------------
# listed obstacles


# One driver call reads the P4s of one instance graph through all n pinned
# LPs, then those of a few restricted graphs; a small cache serves that reuse
# without holding P4 tuples of graphs from earlier calls for the process's life.
@lru_cache(maxsize=8)
def all_induced_p4s(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """All induced 4-vertex paths of the graph, each once (cached per graph).

    Every quadruple of vertices that could induce a P4 is examined, grouped
    by its (unique) middle edge b-c with b < c; a ranges over neighbors of b
    that avoid c, d over neighbors of c that avoid b, and the a-d non-edge is
    checked last (a is off c's neighbourhood and d on it, so a != d).
    """
    quads = []
    for b, c in g.edges:
        nb, nc = g.neighbors(b), g.neighbors(c)
        a_side = sorted(nb - nc - {c})
        if not a_side:
            continue
        d_side = sorted(nc - nb - {b})
        for a in a_side:
            na = g.neighbors(a)
            quads.extend((a, b, c, d) for d in d_side if d not in na)
    return tuple(quads)


def listed_obstacles(inst: Instance) -> Optional[tuple[tuple[int, ...], ...]]:
    """The obstacles of a finitely listed family in witness order: the
    sorted edges for vertex cover, the induced P4s for cograph deletion;
    None for the path and cycle families, whose obstacles are searched for."""
    if inst.problem is Problem.VERTEX_COVER:
        return inst.graph.edges
    if inst.problem is Problem.COGRAPH_DELETION:
        return all_induced_p4s(inst.graph)
    return None


# ---------------------------------------------------------------------------
# feasibility


def is_solution(inst: Instance, x: Iterable[int]) -> bool:
    """True iff deleting x destroys every obstacle of the instance, that is,
    iff no obstacle of G - x is left for `cheapest_obstacle` to find.

    Raises InputError on a member that is not an in-range int (a bool is
    refused, and so is a float, even an integral one).
    """
    removed = _vertex_set(x, inst.n, "solution")
    return cheapest_obstacle(inst, [0] * inst.n, removed) is None


# ---------------------------------------------------------------------------
# cheapest obstacle


# The potential of a vertex that reaches none of its source's targets; every
# other potential is an int below it.
NO_POTENTIAL = 255


def target_potential(
    g: Graph,
    cost: Sequence[int],
    targets: Iterable[int],
    warm: Optional[tuple[bytes, Iterable[int]]] = None,
) -> bytes:
    """Per vertex u, the least cost of the vertices after u on a path from u
    to one of `targets`, by a 0-1 BFS over the reversed arcs: a consistent
    potential for `cheapest_obstacle` under any costs at least `cost`, in
    any G - removed.  Capping values below `NO_POTENTIAL` keeps them
    consistent: min(h(u), c) <= cost[x] + min(h(x), c).

    `warm` = (h, fell) starts from h, built here for the same targets under
    costs that exceed `cost` only at the vertices `fell`: the BFS lowers a
    copy of h, relaxing from those vertices, instead of starting over.  The
    bytes are those of a cold build: costs only fell, so no vertex gains or
    loses a path to a target, and lowering the capped values ends at the
    new ones capped, since capping is monotone.
    """
    n, radj = g.n, g.in_adj()
    unreached = max(n, NO_POTENTIAL)  # no path has n vertices after its first
    if warm is None:
        h = [unreached] * n
        queue = deque(targets)
        for t in queue:
            h[t] = 0
    else:
        # a warm start is capped already, and lowering keeps it so
        unreached = NO_POTENTIAL
        h = list(warm[0])
        queue = deque(warm[1])
    while queue:
        x = queue.popleft()
        step = cost[x]
        d = h[x] + step
        for u in radj[x]:
            if d < h[u]:
                h[u] = d
                if step:
                    queue.append(u)
                else:
                    queue.appendleft(u)
    if unreached > NO_POTENTIAL:
        h = [NO_POTENTIAL if d == unreached else min(d, NO_POTENTIAL - 1) for d in h]
    return bytes(h)


def cheapest_obstacle(
    inst: Instance,
    cost: Sequence[int],
    removed: AbstractSet[int] = frozenset(),
    below: Optional[int] = None,
    potential: Optional[Mapping[int, Sequence[int]]] = None,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Least (cost, order) obstacle of G - removed, on every family.

    An obstacle costs the sum of the nonnegative ints `cost[u]` over its
    vertices; None means none costs less than `below`.  The listed
    families (edges, induced P4s) scan `listed_obstacles`, keeping those
    that avoid `removed`.  The path and cycle families run one
    label-setting loop over one heap that searches from every origin at
    once: each multicut source with a surviving target, and for DFVS each
    vertex v, for the cycles whose least vertex is v.  A label is
    (cost, path) with the path starting at its origin and the origin's cost
    counted from the start, and states are settled per (origin, vertex), so
    labels pop in the obstacles' own (cost, order) and the first one that
    closes an obstacle is the answer.  A DFVS search never enters a vertex
    below its origin, so the arc back to v that closes a cycle leaves it in
    its canonical rotation.

    A multicut search may be steered (A*) by `potential[s]` for each source
    s with a surviving target: 0 at its targets, `NO_POTENTIAL` only where
    none is reached in G - removed, and consistent, h(u) <= cost[x] + h(x)
    on every arc u->x (see `target_potential`).  Labels then pop by
    (cost + potential, path) and a vertex without one is never entered; a
    state's labels share its potential and a target's is 0, so the answer,
    and every None under `below`, are those of the unsteered search.
    """
    listed = listed_obstacles(inst)
    if listed is not None:
        if removed:
            listed = [ob for ob in listed if removed.isdisjoint(ob)]
        # explicit sums per arity: a generic sum per obstacle slows the LP
        # loop, which prices every P4 of the graph once per cut
        if inst.problem is Problem.VERTEX_COVER:
            wts = [cost[a] + cost[b] for a, b in listed]
        else:
            wts = [cost[a] + cost[b] + cost[c] + cost[d] for a, b, c, d in listed]
        least = min(wts, default=None)
        if least is None or (below is not None and least >= below):
            return None
        return least, min(ob for ob, wt in zip(listed, wts) if wt == least)
    g = inst.graph
    n, adj = g.n, g.adj
    if inst.problem is Problem.DFVS:
        targets = None
        heap = [(cost[v], (v,)) for v in range(n) if v not in removed]
    else:
        targets = dict(inst.targets_by_source)
        heap = [
            (cost[s], (s,))
            for s, ts in inst.targets_by_source
            if s not in removed and not ts <= removed
        ]
    settled: set[int] = set()  # origin * n + vertex
    push, pop = heapq.heappush, heapq.heappop
    if potential is not None and targets is not None:
        # a label is (key, path), its cost the key less the potential of its
        # last vertex; a target's potential is 0, so a closing label is
        # (cost, path) as in the unsteered loop below
        heap = [(c + potential[s][s], (s,)) for c, (s,) in heap if potential[s][s] != NO_POTENTIAL]
        heapq.heapify(heap)
        while heap:
            label = pop(heap)
            key, path = label
            if below is not None and key >= below:
                return None
            origin, u = path[0], path[-1]
            base = origin * n
            if base + u in settled:
                continue
            settled.add(base + u)
            if u in targets[origin]:
                return label
            h = potential[origin]
            dist = key - h[u]
            for x in adj[u]:
                hx = h[x]
                if hx != NO_POTENTIAL and x not in removed and base + x not in settled:
                    push(heap, (dist + cost[x] + hx, path + (x,)))
        return None
    heapq.heapify(heap)
    # Extending a path adds a nonnegative cost and lengthens the tuple, so a
    # state's first pop is its least label, and labels pop in nondecreasing
    # (cost, path) order across all origins.
    while heap:
        label = pop(heap)
        dist, path = label
        if below is not None and dist >= below:
            return None
        origin, u = path[0], path[-1]
        base = origin * n
        if base + u in settled:
            continue
        settled.add(base + u)
        if targets is not None and u in targets[origin]:
            return label
        floor = -1 if targets is not None else origin
        for x in adj[u]:
            if x <= floor:
                if x == origin:
                    return label  # the arc back to the origin closes a cycle
                continue
            if x not in removed and base + x not in settled:
                push(heap, (dist + cost[x], path + (x,)))
    return None


# ---------------------------------------------------------------------------
# weighted separation oracle


def find_violated_obstacle(inst: Instance, w: VertexWeights) -> Optional[tuple[int, ...]]:
    """Witness of a minimum-weight obstacle of weight < 1, or None if none exists.

    The weights are validated here, once, and put over their least common
    denominator by `check_weights`; `cheapest_obstacle` then prices the
    whole family (every edge or listed P4, every path or cycle searched
    for) in those integer numerators, so a None answer certifies that all
    obstacles weigh at least 1.  Ties break toward the lexicographically
    least witness (a cycle in its rotation that starts at its least vertex).
    """
    den, nums = check_weights(inst.graph, w)
    found = cheapest_obstacle(inst, nums, below=den)
    return None if found is None else found[1]
