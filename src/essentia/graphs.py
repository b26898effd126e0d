"""Exact-arithmetic graph primitives, and the package's input checks: every
public entry checks vertex sets with `_vertex_set`, edges and terminal pairs
with `_vertex_pairs` and exact factors with `_rational`, and keeps its own rule.

Everything downstream is built on the operations defined here: simple graphs
(directed or not), minimum vertex separators (one augmenting-path loop on
the vertex-split graph, whose last, failed search yields the cut), and
maximum matchings of bipartite double covers, whose sizes are twice the
vertex-cover LP values of `detection`.  No obstacle search lives here:
whether a terminal path or a directed cycle survives, and which one is
cheapest under per-vertex costs, is asked of `problems.cheapest_obstacle`.  LP weights are exact `fractions.Fraction`
values, and `check_weights` validates weights that come from outside and
puts them over one common denominator, so that the separation oracle
compares integer numerators, never approximations.  The cutting-plane loop
skips it: its weights are already numerators over the simplex kernel's
denominator.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from typing import AbstractSet, Iterable, Optional

from .errors import InfeasibleSeparatorError, InputError, SizeCapError

# Per-vertex rational weights in [0, 1]; index u holds the weight of vertex u.
VertexWeights = tuple[Fraction, ...]

ZERO = Fraction(0)

# The most vertices any graph may have; a larger count is refused before
# anything is allocated per vertex or per pair of vertices, so a count such
# as 10**8 in an instance file fails at once instead of exhausting memory.
# The cap is 20 times the largest graph the tests build (5,000 vertices)
# and far beyond what the exact LP and search can finish: the unpinned
# multicut LP at n = 90 already takes 17 s.  An edgeless graph at the cap
# takes about 30 MB and 0.4 s to build (CPython 3.11, one core of a
# 2-vCPU VM).
MAX_VERTICES = 100_000


def _is_int(x: object) -> bool:
    """The vertex-id and count test of the package: an int, never a bool."""
    return type(x) is not bool and isinstance(x, int)


def _check_vertex_count(n: int) -> None:
    """Refuse a graph of more than MAX_VERTICES vertices with SizeCapError."""
    if n > MAX_VERTICES:
        raise SizeCapError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")


def _vertex_set(vertices: Iterable[int], n: Optional[int], what: str) -> frozenset[int]:
    """The vertex set a caller passed, once each member is an int (never a
    bool, even beside an equal int) in 0..n-1, or any int when n is None;
    `what` names the set in messages ("forbidden", "pinned", ...)."""
    try:
        items = tuple(vertices)
    except TypeError:
        raise InputError(f"{what} must be an iterable of vertices, got {vertices!r}") from None
    for u in items:
        if not _is_int(u):
            raise InputError(f"{what} vertex must be an int, got {u!r}")
        if n is not None and not 0 <= u < n:
            raise InputError(f"{what} vertex {u} out of range (n={n})")
    return frozenset(items)


def _vertex_pairs(pairs: Iterable[tuple[int, int]], n: int, what: str) -> list[tuple[int, int]]:
    """The pairs a caller passed as int tuples, once each holds two ints in
    0..n-1; a message names the failing pair as `what[position]`."""
    try:
        pairs = iter(pairs)
    except TypeError:
        raise InputError(f"{what} must be an iterable of pairs, got {pairs!r}") from None
    out = []
    for pos, pair in enumerate(pairs):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InputError(f"{what}[{pos}]: expected a pair of vertices, got {pair!r}") from None
        if not (_is_int(u) and _is_int(v)):
            raise InputError(f"{what}[{pos}]: vertex ids must be ints, got {pair!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{what}[{pos}]: vertex out of range (n={n}): ({u}, {v})")
        out.append((u, v))
    return out


def _is_rational(x: object) -> bool:
    """The exact-rational test of the package: a Fraction or an int, never a bool."""
    return isinstance(x, Fraction) or _is_int(x)


def _weight_tuple(w: object) -> tuple:
    """A weight vector read once, as a tuple; a non-iterable is an InputError."""
    try:
        return tuple(w)
    except TypeError:
        raise InputError(f"weight vector must be an iterable, got {w!r}") from None


def _over_common_denominator(w: tuple) -> tuple[int, list[int]]:
    """(den, nums), den the least common denominator of a weight tuple and
    nums[u] == w[u] * den, once each entry is an exact rational (the first
    that is not is an InputError); `check_weights` and `lp` read weights so."""
    den = 1
    for u, x in enumerate(w):
        if not _is_rational(x):
            raise InputError(f"weight of vertex {u} is not an exact rational: {x!r}")
        if den % x.denominator:
            den = lcm(den, x.denominator)
    return den, [x.numerator * (den // x.denominator) for x in w]


def _check_box(w: tuple, den: int, nums: list[int]) -> None:
    """Refuse the first weight outside [0, 1]: its numerator over den is outside 0..den."""
    for u, p in enumerate(nums):
        if not 0 <= p <= den:
            raise InputError(f"weight of vertex {u} out of [0, 1]: {w[u]}")


def _rational(x: object, what: str) -> Fraction:
    """x as a Fraction, once it is an exact rational: an int or a Fraction,
    never a float, a string, a bool or None."""
    if not _is_rational(x):
        raise InputError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


class Graph:
    """A finite simple graph with vertices 0..n-1.

    Undirected graphs store each edge in both adjacency lists.  Instances are
    immutable after construction and safe to share between threads.  A count
    or endpoint that is not an int (a bool, a float or a string included), a
    `directed` that is not a bool, edges that are not an iterable of pairs,
    an endpoint out of range, a self-loop or a duplicate edge is an
    InputError; a count above MAX_VERTICES is a SizeCapError.
    """

    __slots__ = ("n", "directed", "adj", "_adj_sets", "edges", "_hash", "_in_adj")

    def __init__(self, n: int, directed: bool, edges: Iterable[tuple[int, int]]):
        if not _is_int(n) or n < 0:
            raise InputError(f"vertex count must be a nonnegative int, got {n!r}")
        _check_vertex_count(n)
        if type(directed) is not bool:
            raise InputError(f"directed must be a bool, got {directed!r}")
        self.n = n
        self.directed = directed
        seen = set()
        adj = [[] for _ in range(n)]
        canon = []
        for pos, (u, v) in enumerate(_vertex_pairs(edges, n, "edges")):
            if u == v:
                raise InputError(f"edges[{pos}]: self-loop at vertex {u}")
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"edges[{pos}]: duplicate edge ({u}, {v})")
            seen.add(key)
            canon.append(key)
            adj[u].append(v)
            if not directed:
                adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._adj_sets = tuple(frozenset(a) for a in self.adj)
        self.edges = tuple(sorted(canon))
        self._hash: Optional[int] = None
        self._in_adj: Optional[tuple[tuple[int, ...], ...]] = None

    def has_arc(self, u: int, v: int) -> bool:
        """True if the arc (edge) u->v exists."""
        return v in self._adj_sets[u]

    def neighbors(self, u: int) -> frozenset[int]:
        return self._adj_sets[u]

    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's in-neighbours, ascending (`adj` when undirected),
        built on first use."""
        if self._in_adj is None:
            if self.directed:
                lists: list[list[int]] = [[] for _ in range(self.n)]
                for u, v in self.edges:
                    lists[v].append(u)
                self._in_adj = tuple(map(tuple, lists))
            else:
                self._in_adj = self.adj
        return self._in_adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.directed == other.directed
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        # computed once: the P4 cache looks a graph up on every oracle call
        if self._hash is None:
            self._hash = hash((self.n, self.directed, self.edges))
        return self._hash

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind}, n={self.n}, m={len(self.edges)})"


def check_weights(g: Graph, w: VertexWeights) -> tuple[int, list[int]]:
    """Validate a weight vector and put it over its least common denominator.

    The vector, read once as a tuple, must have length n and hold exact
    rationals (`Fraction`s or ints, never bools) in [0, 1].  Returns (den,
    nums) with nums[u] == w[u] * den.  One positive den keeps the order of
    every sum of weights, so callers may compare sums of the integer
    numerators instead of `Fraction` sums.
    """
    w = _weight_tuple(w)
    if len(w) != g.n:
        raise InputError(f"weight vector has length {len(w)}, expected {g.n}")
    den, nums = _over_common_denominator(w)
    _check_box(w, den, nums)
    return den, nums


def min_vertex_separator(
    g: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
    forbidden: Iterable[int] = frozenset(),
) -> frozenset[int]:
    """Minimum-cardinality vertex set meeting every sources->targets path.

    The separator never contains a forbidden vertex and may contain source or
    target vertices themselves.  By max-flow/min-cut duality its size equals
    the maximum number of internally vertex-disjoint sources->targets paths.
    Raises InfeasibleSeparatorError when some path consists of forbidden
    vertices only, so that no valid separator exists, and InputError on a
    source, target or forbidden vertex that is not an in-range int (a bool
    included).

    Unit-capacity max-flow on the vertex-split graph: vertex u becomes the
    arc 2u -> 2u+1 of capacity 1, or n + 1 (more than any vertex cut) when u
    is forbidden, and every other arc is uncapacitated.  Each breadth-first
    search augments one unit; only a path of forbidden vertices could carry
    more, so n + 1 units prove that no separator exists.  The last search,
    which misses the sink, reaches the source side of the source-closest
    minimum cut, the same for every maximum flow: the cut is the vertices
    whose in-node it reaches and whose out-node it does not.
    """
    sources = sorted(_vertex_set(sources, g.n, "source"))
    targets = sorted(_vertex_set(targets, g.n, "target"))
    forbidden = _vertex_set(forbidden, g.n, "forbidden")
    big = g.n + 1
    source_node, sink_node = 2 * g.n, 2 * g.n + 1
    cap: list[dict[int, int]] = [dict() for _ in range(2 * g.n + 2)]

    def add(a: int, b: int, c: int) -> None:
        cap[a][b] = cap[a].get(b, 0) + c
        cap[b].setdefault(a, 0)

    for u in range(g.n):
        add(2 * u, 2 * u + 1, big if u in forbidden else 1)
        for v in g.adj[u]:
            add(2 * u + 1, 2 * v, big)
    for u in sources:
        add(source_node, 2 * u, big)
    for u in targets:
        add(2 * u + 1, sink_node, big)

    flow = 0
    while True:
        parent = {source_node: source_node}
        queue = deque([source_node])
        while queue and sink_node not in parent:
            a = queue.popleft()
            for b, c in cap[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink_node not in parent:
            break
        b = sink_node
        while b != source_node:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1
        if flow > g.n:
            raise InfeasibleSeparatorError("every separator would need a forbidden vertex")

    cut = frozenset(u for u in range(g.n) if 2 * u in parent and 2 * u + 1 not in parent)
    if len(cut) != flow:
        raise AssertionError("min-cut size must equal the max-flow value")
    return cut


def _double_cover_mates(
    g: Graph, removed: AbstractSet[int] = frozenset(), start: Optional[list] = None
) -> list[Optional[int]]:
    """A maximum matching of the bipartite double cover of g - removed, as
    each left vertex's right mate (None when unmatched).  The cover joins a
    left copy of u to a right copy of v for every arc u->v (both ways for an
    undirected edge), for u, v outside `removed`; its maximum matching is
    twice the vertex-cover LP value of g - removed (Nemhauser-Trotter).

    One breadth-first augmenting-path search per free left vertex, with no
    recursion however long the paths grow.  `start`, in the same form, is
    any matching of g's double cover (exact search passes the last one it
    found, `detection` the previous vertex's): its pairs that touch
    `removed` are dropped and only the left vertices it leaves free are
    searched from.  A root whose search fails has no augmenting path after
    later augmentations either (Berge), so the matching is maximum from any
    start.
    """
    adj = g.adj
    left_mate: list[Optional[int]] = [None] * g.n
    right_mate: list[Optional[int]] = [None] * g.n
    for u, v in enumerate(start or ()):
        if v is not None and u not in removed and v not in removed:
            left_mate[u], right_mate[v] = v, u
    for root in range(g.n):
        if root in removed or left_mate[root] is not None:
            continue
        parent: dict[int, int] = {}  # right vertex -> the left vertex that reached it
        lefts, free = [root], None
        for u in lefts:
            for v in adj[u]:
                if v not in removed and v not in parent:
                    parent[v] = u
                    if right_mate[v] is None:
                        free = v
                        break
                    lefts.append(right_mate[v])
            if free is not None:
                break
        while free is not None:  # flip the path from root to free
            u = parent[free]
            after = left_mate[u]  # the next right vertex back towards root
            left_mate[u], right_mate[free] = free, u
            free = after
    return left_mate
