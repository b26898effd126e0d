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

An instance never enumerates its obstacles up front; feasibility checks and
the weighted separation oracle inspect the graph directly.  For the path and
cycle families one search, `cheapest_obstacle`, finds the least terminal
path or directed cycle under integer vertex costs, endpoints included, with
one heap for the searches from every source or least vertex.  It is the
package's only weighted path search, and it has three callers: the oracle
finds its cuts with it, exact search its branch obstacles, and the rounding
its heavy sets (one single-pair multicut instance per vertex).  The
oracle is the workhorse of the cutting-plane solver: given rational vertex
weights it either certifies that every obstacle weighs at least 1 (the
right-hand side of every covering constraint) or produces a minimum-weight
obstacle lighter than that.  It prices obstacles in integer numerators over one common
denominator.  The public `find_violated_obstacle` validates `Fraction`
weights once and puts them over their least common denominator;
`separate_numerators` is the same oracle on numerators the caller
vouches for, such as the cutting-plane loop's, read straight off the
simplex kernel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence

from .errors import InputError, PreconditionError
from .graphs import Graph, VertexWeights, _is_int, check_weights, reachable_set


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


class ObstacleKind(Enum):
    TERMINAL_PATH = "terminal-path"
    INDUCED_P4 = "induced-p4"
    EDGE = "edge"
    DIRECTED_CYCLE = "directed-cycle"


@dataclass(frozen=True)
class Obstacle:
    """A vertex set that every solution must intersect.

    `order` records the witnessing structure (path order, cycle order, the
    a-b-c-d order of an induced P4, or a sorted edge); `vertices` is what the
    hitting constraint ranges over.
    """

    kind: ObstacleKind
    vertices: frozenset[int]
    order: tuple[int, ...]


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
        try:
            raw = tuple(self.terminals)
        except TypeError:
            raise InputError(
                f"terminals must be an iterable of pairs, got {self.terminals!r}"
            ) from None
        if raw and not self.problem.uses_terminals:
            raise InputError(f"{self.problem.value} does not take terminal pairs")
        terms = []
        groups: dict[int, set[int]] = {}
        for pos, pair in enumerate(raw):
            try:
                s, t = pair
            except (TypeError, ValueError):
                raise InputError(f"terminals[{pos}]: expected a pair of vertices, got {pair!r}") from None
            if not (_is_int(s) and _is_int(t)):
                raise InputError(f"terminals[{pos}]: vertex ids must be ints, got {pair!r}")
            if not (0 <= s < self.graph.n and 0 <= t < self.graph.n):
                raise InputError(f"terminals[{pos}]: vertex out of range: ({s}, {t})")
            if s == t:
                raise InputError(f"terminals[{pos}]: pair endpoints coincide: {s}")
            if t in groups.setdefault(s, set()):
                raise InputError(f"terminals[{pos}]: duplicate pair ({s}, {t})")
            groups[s].add(t)
            terms.append((s, t))
        object.__setattr__(self, "terminals", tuple(terms))
        by_source = tuple((s, frozenset(ts)) for s, ts in sorted(groups.items()))
        object.__setattr__(self, "targets_by_source", by_source)

    @property
    def n(self) -> int:
        return self.graph.n


# ---------------------------------------------------------------------------
# structure scans


def iter_induced_p4s(
    g: Graph, removed: frozenset[int] = frozenset()
) -> Iterator[tuple[int, int, int, int]]:
    """All induced 4-vertex paths avoiding `removed`, each exactly once.

    Every quadruple of vertices that could induce a P4 is examined, grouped
    by its (unique) middle edge b-c with b < c; a ranges over neighbors of b
    that avoid c, d over neighbors of c that avoid b, and the a-d non-edge is
    checked last.
    """
    for b, c in g.edges:
        if b in removed or c in removed:
            continue
        nb, nc = g.neighbors(b), g.neighbors(c)
        a_side = sorted(nb - nc - {c} - removed)
        if not a_side:
            continue
        d_side = sorted(nc - nb - {b} - removed)
        for a in a_side:
            na = g.neighbors(a)
            for d in d_side:
                if d != a and d not in na:
                    yield (a, b, c, d)


# One driver call reads the P4s of one instance graph through all n pinned
# LPs, then those of a few restricted graphs; a small cache serves that reuse
# without holding P4 tuples of graphs from earlier calls for the process's life.
@lru_cache(maxsize=8)
def all_induced_p4s(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """All induced 4-vertex paths of the graph, each once (cached per graph)."""
    return tuple(iter_induced_p4s(g))


def has_induced_p4(g: Graph, removed: frozenset[int] = frozenset()) -> bool:
    """True if the graph minus `removed` still contains an induced P4."""
    return next(iter_induced_p4s(g, removed), None) is not None


def is_acyclic(g: Graph, removed: frozenset[int] = frozenset()) -> bool:
    """True if the directed graph minus `removed` has no directed cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [BLACK if u in removed else WHITE for u in range(g.n)]
    for root in range(g.n):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(g.adj[root]))]
        color[root] = GRAY
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if color[v] == GRAY:
                    return False
                if color[v] == WHITE:
                    color[v] = GRAY
                    stack.append((v, iter(g.adj[v])))
                    advanced = True
                    break
            if not advanced:
                color[u] = BLACK
                stack.pop()
    return True


# ---------------------------------------------------------------------------
# feasibility


def is_solution(inst: Instance, x: Iterable[int]) -> bool:
    """True iff deleting x destroys every obstacle of the instance.

    Raises InputError on a member that is not an in-range int (a bool is
    refused, and so is a float, even an integral one).
    """
    removed = frozenset(x)
    for u in removed:
        if not _is_int(u):
            raise InputError(f"vertex ids must be ints, got {u!r}")
        if not 0 <= u < inst.n:
            raise InputError(f"vertex {u} out of range (n={inst.n})")
    g = inst.graph
    p = inst.problem
    if p.uses_terminals:
        # a reachable set never holds a removed vertex
        return all(
            s in removed or reachable_set(g, (s,), removed).isdisjoint(targets)
            for s, targets in inst.targets_by_source
        )
    if p is Problem.COGRAPH_DELETION:
        return not has_induced_p4(g, removed)
    if p is Problem.VERTEX_COVER:
        return all(u in removed or v in removed for u, v in g.edges)
    if p is Problem.DFVS:
        return is_acyclic(g, removed)
    raise AssertionError(p)


# ---------------------------------------------------------------------------
# cheapest path or cycle obstacle


def cheapest_obstacle(
    inst: Instance,
    cost: Sequence[int],
    removed: AbstractSet[int] = frozenset(),
    below: Optional[int] = None,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Least (cost, order) terminal path or directed cycle of G - removed.

    An obstacle costs the sum of the nonnegative ints `cost[u]` over its
    vertices; None means none costs less than `below`.  One label-setting
    loop over one heap searches from every origin at once: each multicut
    source with a surviving target, and for DFVS each vertex v, for the
    cycles whose least vertex is v.  A label is (cost, path) with the path
    starting at its origin and the origin's cost counted from the start, and
    states are settled per (origin, vertex), so labels pop in the obstacles'
    own (cost, order) and the first one that closes an obstacle is the
    answer.  A DFVS search never enters a vertex below its origin, so the
    arc back to v that closes a cycle leaves it in its canonical rotation.
    """
    g = inst.graph
    n, adj = g.n, g.adj
    if inst.problem is Problem.DFVS:
        targets = None
        heap = [(cost[v], (v,)) for v in range(n) if v not in removed]
    elif inst.problem.uses_terminals:
        targets = dict(inst.targets_by_source)
        heap = [
            (cost[s], (s,))
            for s, ts in inst.targets_by_source
            if s not in removed and not ts <= removed
        ]
    else:
        raise PreconditionError(f"{inst.problem.value} has no path or cycle obstacles")
    heapq.heapify(heap)
    settled: set[int] = set()  # origin * n + vertex
    push, pop = heapq.heappush, heapq.heappop
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


def find_violated_obstacle(
    inst: Instance, w: VertexWeights, v_pinned: Optional[int] = None
) -> Optional[Obstacle]:
    """Minimum-weight obstacle of weight < 1, or None if none exists.

    A minimum-weight obstacle of every subfamily is examined: the path and
    cycle families through `cheapest_obstacle`, every quadruple for induced
    P4s, every edge for vertex cover.  Hence a None answer certifies that
    all obstacles weigh at least 1.  Ties break toward the lexicographically
    least witness (a cycle in its rotation that starts at its least
    vertex).  The weights are validated here, once, and scaled to integer
    numerators over their least common denominator; `separate_numerators`
    prices every family in those ints.
    """
    den, nums = check_weights(inst.graph, w)
    return separate_numerators(inst, den, nums, v_pinned)


def separate_numerators(
    inst: Instance, den: int, nums: list[int], v_pinned: Optional[int] = None
) -> Optional[Obstacle]:
    """`find_violated_obstacle` on trusted weights nums[u] / den.

    The caller vouches that den > 0 and 0 <= nums[u] <= den for all n
    vertices; nothing but the pin is checked.  Any positive common
    denominator gives the same answer, since scaling every weight by one
    positive factor keeps the order of every sum.  An obstacle is violated
    when its numerator sum is below den.
    """
    g = inst.graph
    if v_pinned is not None and nums[v_pinned] != 0:
        raise PreconditionError(f"pinned vertex {v_pinned} must have weight 0")
    p = inst.problem
    best: Optional[tuple[int, tuple[int, ...]]] = None

    if p.uses_terminals or p is Problem.DFVS:
        best = cheapest_obstacle(inst, nums, below=den)
        kind = ObstacleKind.DIRECTED_CYCLE if p is Problem.DFVS else ObstacleKind.TERMINAL_PATH
    elif p is Problem.COGRAPH_DELETION:
        for quad in all_induced_p4s(g):
            wt = nums[quad[0]] + nums[quad[1]] + nums[quad[2]] + nums[quad[3]]
            if best is None or (wt, quad) < best:
                best = (wt, quad)
        kind = ObstacleKind.INDUCED_P4
    elif p is Problem.VERTEX_COVER:
        for u, v in g.edges:
            wt = nums[u] + nums[v]
            if best is None or (wt, (u, v)) < best:
                best = (wt, (u, v))
        kind = ObstacleKind.EDGE
    else:
        raise AssertionError(p)

    if best is None or best[0] >= den:
        return None
    return Obstacle(kind, frozenset(best[1]), best[1])
