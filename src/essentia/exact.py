"""Exact optimum by obstacle-driven branch and bound.

The solver branches on a currently-violated obstacle with the fewest
deletable vertices, trying each in turn while excluding the previously tried
ones (include-vertex branches, partitioned by the first chosen vertex).
Obstacles whose deletable set is a single vertex force that vertex; an empty
deletable set refutes the branch.  Pruning combines a greedy incumbent found
up front and a lower bound from packing violated obstacles with pairwise
disjoint deletable sets.  On vertex cover that bound is raised to the LP
value of the graph left: ν/2, rounded up, for the maximum matching ν of its
bipartite double cover (`graphs.double_cover_matching`).  Each matching
starts from the last one the solve found, in either pass: the pairs that
touch removed vertices go and only the free vertices are augmented from.
Only its size is read, the same from any start.  That bound ignores blocked
vertices and choosing a leaf does not raise it, so vertex cover also skips
the first leaf of the branch obstacle, a deletable vertex on no other
surviving obstacle: a solution through it trades it for another deletable
vertex of that obstacle at no cost.  The listed families' obstacles (edges,
induced P4s) are held as witness and bitmask: an obstacle's deletable count
is one `&` with the unblocked vertices and a popcount.  The path and cycle
families get their branch obstacles from `problems.cheapest_obstacle`, the
search the separation oracle uses, with deletable vertices costing 1: its
answer is the globally least (cost, order) path or cycle.

Deterministic throughout: among minimum solutions the lexicographically
least vertex set is returned.  Once the optimum size is known, a second
pass grows that set vertex by vertex from a minimum solution, `base`, that
contains the kept prefix.  The next vertex is the least b of base beyond
the prefix, unless a vertex below it can take its place: one search asks
for a minimum solution that contains the prefix, avoids every vertex
already ruled out and meets the range of vertices between the prefix and b.
That range enters the search as one more obstacle.  A witness becomes the
new base and lowers b; a refutation keeps b and rules out the whole range.

The second pass walks much of the minimum pass's tree again, so one solve
keeps a memo of its path and cycle searches, keyed by the blocked set, which
fixes the costs (1 off it, 0 on it); `cheapest_obstacle` runs only on a
question the memo cannot answer.  The memo is exact.  The search returns the
least (cost, order) obstacle P of G - R: a smaller label at a vertex of P
would give, by a shortcut, a smaller simple obstacle.  Removing vertices only
shrinks the set of candidates, so P is also the answer for every R' ⊇ R that
P avoids, once the query's own `below` is applied to it.  Likewise a None
found under `below` b holds for every R' ⊇ R under a `below` of at most b,
or under none if b was none.  Search trees, node counts and solutions are
those without the memo.

Every multicut search is steered with potentials (A*, see
`cheapest_obstacle`), made per blocked set and source on first use and
kept beside the memo; they ignore `removed`, which only lengthens paths.
A child's blocked set contains its parent's, so its costs only fall: a
vector is lowered from the latest kept one of a blocked set inside the new
one (`target_potential`'s warm start) and built cold only when there is
none.  Steering changes no answer; DFVS and the listed families search
unsteered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError, NodeCapError
from .graphs import _double_cover_mates, _is_int, _vertex_set
from .problems import (
    Instance,
    Problem,
    cheapest_obstacle,
    is_solution,
    listed_obstacles,
    target_potential,
)

_INFEASIBLE = 10**9

_log = logging.getLogger("essentia.exact")


# Search-node budget of one exact solve unless the caller passes its own.
DEFAULT_NODE_CAP = 2_000_000


@dataclass(frozen=True)
class SolveBudget:
    """Caps for one exact solve: size budget, undeletable vertices, node cap.

    `forbidden` may be any iterable of vertices and is stored as a
    frozenset.  Every value must be an int (bools are refused) and the node
    cap nonnegative; each solve checks the other ranges, which depend on the
    instance.  Bad input raises InputError.
    """

    max_k: Optional[int] = None
    forbidden: frozenset[int] = frozenset()
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        object.__setattr__(self, "forbidden", _vertex_set(self.forbidden, None, "forbidden"))
        if self.max_k is not None and not _is_int(self.max_k):
            raise InputError(f"max_k must be an int, got {self.max_k!r}")
        if not _is_int(self.node_cap) or self.node_cap < 0:
            raise InputError(f"node_cap must be a nonnegative int, got {self.node_cap!r}")


# An enumerated obstacle: its vertices in witness order, and as a bitmask.
_Enumerated = tuple[tuple[int, ...], int]


# A path or cycle search of one solve: the removed vertices and the found
# obstacle's vertices as bitmasks, the answer of `cheapest_obstacle`, and the
# `below` it ran under.
_MemoEntry = tuple[int, int, Optional[tuple[int, tuple[int, ...]]], Optional[int]]

# Searches one solve keeps in its memo before it clears it.  On solve-exact
# seed 21, ops 0-599, a solve kept at most 1,118 entries, and at most 35
# under one blocked set; without a cap, a solve that runs to the node cap
# would keep millions.
_MEMO_CAP = 4096


# Blocked sets whose potentials a solve keeps.  A clear also drops the sets
# a new one lowers its vectors from: on solve-exact seed 21, ops 0-299, the
# solves lowered 33,159 vectors and built 4,727 cold under this cap, and
# lowered 33,393 and built 3,300 with none, which peaked 0.5 MB higher.
_POTENTIAL_CAP = 64


def _mask(vertices: Iterable[int]) -> int:
    """The vertex set as an int with bit u set for each vertex u."""
    return sum(map((1).__lshift__, vertices))


def _avoiding(alive: Optional[list[_Enumerated]], u: int) -> Optional[list[_Enumerated]]:
    """The obstacles of `alive` that survive deleting u, in their order."""
    if alive is None:
        return None
    bit = 1 << u
    return [ob for ob in alive if not ob[1] & bit]


class _Search:
    """One branch-and-bound run over a fixed instance and forbidden set.

    A search node is (chosen, blocked, alive): the deleted vertices, the
    vertices no branch below may delete, and, for the finitely enumerated
    families, the obstacles that survive `chosen` in their enumeration order,
    each as its witness and bitmask (None for the path families, whose
    obstacles are searched for).  A child filters its parent's `alive` by the
    one vertex it adds, so no node scans the whole obstacle list.
    """

    def __init__(self, inst: Instance, forbidden: frozenset[int], node_cap: int):
        self.inst = inst
        self.g = inst.graph
        self.forbidden = forbidden
        self.node_cap = node_cap
        self.nodes = 0
        self.best: Optional[frozenset[int]] = None
        self.find_first = False
        # path and cycle searches run and answered from the memo: blocked
        # mask -> (removed mask, obstacle mask, answer, below) per search
        self.searches = 0
        self.memo_hits = 0
        self.memo: dict[int, list[_MemoEntry]] = {}
        self.memo_size = 0
        # blocked mask -> source -> potential, and the vectors built cold
        # or lowered from another blocked set's
        self.potentials: dict[int, dict[int, bytes]] = {}
        self.potentials_built = 0
        self.potentials_lowered = 0
        # vertex cover: the last matching `_packing_lb` found, which the
        # next one starts from, and the matchings found
        self.matched: Optional[list[Optional[int]]] = None
        self.matchings = 0
        # the range a second-pass search must also hit, as one more obstacle
        self.target: Optional[frozenset[int]] = None
        listed = listed_obstacles(inst)
        self.obstacles: Optional[list[_Enumerated]] = (
            None if listed is None else [(ob, _mask(ob)) for ob in listed]
        )

    # -- violated obstacle with fewest deletable vertices ---------------------

    def _violated(
        self,
        removed: frozenset[int],
        blocked: frozenset[int],
        alive: Optional[list[_Enumerated]],
    ) -> Optional[tuple[list[int], frozenset[int]]]:
        """(deletable vertices, obstacle vertex set) minimizing the deletable
        count, ties to the least witness, or None when no obstacle survives
        `removed`; `alive` is the node's surviving enumerated obstacles.  The
        scan of the enumerated ones stops early once a count <= 1 shows up: a
        forced or refuting obstacle is as good a branch point as any.  The
        path families take the least (count, order) path or cycle, whose
        search stops at the first one it closes.
        """
        if alive is not None:
            free = ~_mask(blocked)
            best = None
            least = self.g.n + 1  # above any count
            for ob in alive:
                count = (ob[1] & free).bit_count()
                if count < least or (count == least and ob[0] < best[0]):
                    best, least = ob, count
                    if count <= 1:
                        break
            if best is None:
                return None
            order = best[0]
            return sorted(u for u in order if u not in blocked), frozenset(order)
        # cheapest surviving path or cycle, counting only deletable vertices;
        # an unhit target wins unless a path has at most as many
        target = self.target
        below = None
        if target is not None and target.isdisjoint(removed):
            below = len(target - blocked) + 1
        found = self._cheapest(removed, blocked, below)
        if found is None:
            if below is None:
                return None
            return sorted(target - blocked), target
        vs = frozenset(found[1])
        return sorted(u for u in vs if u not in blocked), vs

    def _cheapest(
        self, removed: frozenset[int], blocked: frozenset[int], below: Optional[int]
    ) -> Optional[tuple[int, tuple[int, ...]]]:
        """`cheapest_obstacle` with cost 1 on the vertices outside `blocked`
        and 0 on those inside, answered from the memo when an earlier search
        of this solve under the same blocked set settles it (see the module
        docstring): an obstacle found with fewer removed vertices that
        avoids all of `removed`, or a None found with fewer removed vertices
        under a `below` at least this one.
        """
        key = _mask(blocked)
        gone = _mask(removed)
        entries = self.memo.get(key, ())
        for done, hit, found, bound in entries:
            if done & ~gone:
                continue  # that search kept a vertex this one removes
            if found is not None:
                if hit & gone:
                    continue
                self.memo_hits += 1
                return found if below is None or found[0] < below else None
            if bound is None or (below is not None and below <= bound):
                self.memo_hits += 1
                return None
        cost = [0 if u in blocked else 1 for u in range(self.g.n)]
        potential = None
        if self.inst.problem.uses_terminals:
            potential = self._potentials(key, blocked, cost, removed)
        self.searches += 1
        found = cheapest_obstacle(self.inst, cost, removed, below, potential)
        if self.memo_size >= _MEMO_CAP:
            self.memo.clear()
            self.memo_size = 0
        hit = 0 if found is None else _mask(found[1])
        self.memo.setdefault(key, []).append((gone, hit, found, below))
        self.memo_size += 1
        return found

    def _potentials(
        self, key: int, blocked: frozenset[int], cost: list[int], removed: frozenset[int]
    ) -> dict[int, bytes]:
        """The potentials under `blocked`, whose mask is `key` and costs
        `cost`, of every source with a surviving target.  A missing vector
        is lowered from that of the latest stored blocked set inside this
        one, under which only the vertices between the two cost more, or
        built cold when that set has none."""
        stored = self.potentials
        pots = stored.get(key)
        missing = [
            (s, ts)
            for s, ts in self.inst.targets_by_source
            if (pots is None or s not in pots) and s not in removed and not ts <= removed
        ]
        base, fell = {}, []
        if missing:
            older = next((k for k in reversed(stored) if k != key and not k & ~key), None)
            if older is not None:
                base = stored[older]
                fell = [u for u in blocked if not older >> u & 1]
        if pots is None:
            if len(stored) >= _POTENTIAL_CAP:
                stored.clear()
            pots = stored[key] = {}
        for s, ts in missing:
            if s in base:
                pots[s] = target_potential(self.g, cost, ts, (base[s], fell))
                self.potentials_lowered += 1
            else:
                pots[s] = target_potential(self.g, cost, ts)
                self.potentials_built += 1
        return pots

    # -- packing lower bound ---------------------------------------------------

    def _packing_lb(
        self,
        removed: frozenset[int],
        blocked: frozenset[int],
        need: int,
        alive: Optional[list[_Enumerated]],
        first: frozenset[int],
    ) -> int:
        """Greedy count of violated obstacles with pairwise disjoint deletable
        sets; each needs its own deletion.  Stops once `need` is reached; an
        undeletable violated obstacle yields an effectively infinite bound.
        The path families start from `first`, the node's branch obstacle (its
        `_violated` answer, with a deletable vertex), then the unhit target
        when its deletable set misses `first`'s, and search each next
        obstacle with the packed deletable vertices removed; the enumerated
        ones scan `alive` in order, where the target comes first.  On vertex
        cover a count short of `need` is raised to ceil(ν/2), the LP value of
        G - removed, which every completion covers; with blocked vertices the
        greedy count can be the larger (a star whose centre is blocked packs
        every leaf's edge), so the bound is the larger of the two.  Its
        matching starts from the solve's last one, `matched`, and replaces it.
        """
        if alive is not None:
            # `used` never meets `blocked`, so it meets the deletable part
            # of an obstacle iff it meets the obstacle
            free = ~_mask(blocked)
            used = 0
            count = 0
            for _, vs in alive:
                if used & vs:
                    continue
                allowed = vs & free
                if not allowed:
                    return _INFEASIBLE
                used |= allowed
                count += 1
                if count >= need:
                    return count
            if self.inst.problem is Problem.VERTEX_COVER:
                self.matched = _double_cover_mates(self.g, removed, self.matched)
                self.matchings += 1
                return max(count, (self.g.n - self.matched.count(None) + 1) // 2)
            return count
        if need > self.g.n - len(removed | blocked):
            return 0  # each packed obstacle needs a deletable vertex of its own
        # `gone` holds the removed vertices and the packed deletable ones;
        # blocked vertices stay usable, since no packed obstacle counts on them
        gone = removed | (first - blocked)
        count = 1
        target = self.target
        if target is not None and count < need and target.isdisjoint(gone):
            # deletable: an undeletable unhit target is the node's branch obstacle
            gone |= target - blocked
            count += 1
        while count < need:
            res = self._violated(gone, blocked, None)
            if res is None:
                break
            allowed, _ = res
            if not allowed:
                return _INFEASIBLE
            gone = gone.union(allowed)
            count += 1
        return count

    # -- search ------------------------------------------------------------------

    def _bound(self, max_k: Optional[int]) -> int:
        b = self.g.n if max_k is None else max_k
        if self.best is not None:
            b = min(b, len(self.best) - 1)
        return b

    def _alive(self, gone: set[int]) -> Optional[list[_Enumerated]]:
        """The enumerated obstacles that survive deleting `gone`."""
        if self.obstacles is None:
            return None
        hit = _mask(gone)
        return [ob for ob in self.obstacles if not ob[1] & hit]

    def _dfs(
        self,
        chosen: set[int],
        blocked: frozenset[int],
        max_k: Optional[int],
        alive: Optional[list[_Enumerated]],
    ) -> None:
        if self.find_first and self.best is not None:
            return
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise NodeCapError(f"search exceeded {self.node_cap} nodes")
        while True:
            bound = self._bound(max_k)
            if len(chosen) > bound:
                return
            removed = frozenset(chosen)
            res = self._violated(removed, blocked, alive)
            if res is None:
                if self.best is None or len(chosen) < len(self.best):
                    self.best = removed
                return
            allowed, vs = res
            if not allowed:
                return
            if len(chosen) + 1 > bound:
                return
            if len(allowed) == 1:
                chosen = chosen | {allowed[0]}
                alive = _avoiding(alive, allowed[0])
                continue
            break
        need = bound - len(chosen) + 1
        if self._packing_lb(removed, blocked, need, alive, vs) >= need:
            return
        # vertex cover's leaf rule (see the module docstring); a vertex of an
        # unhit target is on it too, so it is never the leaf of an edge
        leaf = None
        if self.inst.problem is Problem.VERTEX_COVER:
            leaf = next((u for u in allowed if sum(mask >> u & 1 for _, mask in alive) == 1), None)
        tried: set[int] = set()
        for u in allowed:
            if u != leaf:
                self._dfs(chosen | {u}, blocked | frozenset(tried), max_k, _avoiding(alive, u))
                if self.find_first and self.best is not None:
                    return
            tried.add(u)

    def _greedy(self) -> Optional[frozenset[int]]:
        chosen: set[int] = set()
        alive = self.obstacles
        while True:
            res = self._violated(frozenset(chosen), self.forbidden, alive)
            if res is None:
                break
            allowed, _ = res
            if not allowed:
                return None
            chosen |= set(allowed)
            for u in allowed:
                alive = _avoiding(alive, u)
        for u in sorted(chosen, reverse=True):
            if is_solution(self.inst, chosen - {u}):
                chosen.discard(u)
        return frozenset(chosen)

    def minimum(self, max_k: Optional[int]) -> Optional[frozenset[int]]:
        """Any minimum-size solution of size <= max_k, or None."""
        incumbent = self._greedy()
        if incumbent is None:
            return None
        self.best = incumbent
        self.find_first = False
        self._dfs(set(), self.forbidden, max_k, self.obstacles)
        if self.best is not None and (max_k is None or len(self.best) <= max_k):
            return self.best
        return None

    def completable(
        self, prefix: set[int], ruled_out: set[int], target: frozenset[int], size_cap: int
    ) -> bool:
        """Is there a solution of size <= size_cap containing `prefix` and
        meeting `target` that avoids `ruled_out`?  On yes, `best` is one."""
        self.best = None
        self.find_first = True
        self.target = target
        alive = self._alive(prefix)
        if alive is not None:
            alive.insert(0, (tuple(sorted(target)), _mask(target)))
        self._dfs(set(prefix), self.forbidden | ruled_out, size_cap, alive)
        return self.best is not None


def _check_budget(inst: Instance, budget: SolveBudget) -> None:
    """The ranges of a budget whose types `SolveBudget` has checked."""
    _vertex_set(budget.forbidden, inst.n, "forbidden")
    if budget.max_k is not None and not 0 <= budget.max_k <= inst.n:
        raise InputError(f"max_k {budget.max_k} out of range (n={inst.n})")


def solve_exact(
    inst: Instance, budget: SolveBudget = SolveBudget()
) -> Optional[frozenset[int]]:
    """Minimum-size solution avoiding the forbidden vertices, within max_k.

    Returns None when no such solution exists (never an error); among
    minimum solutions the lexicographically least vertex set is returned.
    The second pass keeps one vertex per step, so it refutes at most one
    range of candidates per kept vertex instead of one candidate per search.
    Raises NodeCapError when the search budget runs out and InputError on a
    budget out of range.  One DEBUG record on the "essentia.exact" logger
    gives the nodes of each pass, the ranges the second pass refuted, the
    path or cycle searches the solve ran and the answers its memo served
    (both 0 on the enumerated families), the potential vectors it lowered
    and built cold, and the vertex-cover matchings it found.
    """
    _check_budget(inst, budget)
    search = _Search(inst, budget.forbidden, budget.node_cap)
    base = search.minimum(budget.max_k)
    minimum_nodes = search.nodes
    refuted = 0
    result = None
    if base is not None:
        size = len(base)
        prefix: set[int] = set()
        ruled_out: set[int] = set()
        cur = 0
        while len(prefix) < size:
            # base is a minimum solution containing prefix; each vertex below
            # cur is kept, forbidden or ruled out, so base adds its least
            # vertex b at or above cur, and only the range below b can beat b
            b = min(base - prefix)
            below_b = frozenset(range(cur, b)) - budget.forbidden
            if below_b:
                if search.completable(prefix, ruled_out, below_b, size):
                    base = search.best
                    if base is None or base.isdisjoint(below_b):
                        raise AssertionError("a witness must meet the range it was asked to meet")
                    continue
                refuted += 1
                ruled_out |= below_b
            prefix.add(b)
            cur = b + 1
        result = frozenset(prefix)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "solve_exact: %d minimum-pass nodes, %d lexicographic-pass nodes, "
            "%d refuted ranges, %d obstacle searches, %d memo answers, "
            "%d potential vectors lowered, %d built cold, %d matchings",
            minimum_nodes,
            search.nodes - minimum_nodes,
            refuted,
            search.searches,
            search.memo_hits,
            search.potentials_lowered,
            search.potentials_built,
            search.matchings,
        )
    return result


def opt_value(
    inst: Instance, node_cap: int = DEFAULT_NODE_CAP, forbidden: Iterable[int] = ()
) -> Optional[int]:
    """Minimum solution size among solutions disjoint from `forbidden`.

    None only when the forbidden vertices leave no solution; with none
    forbidden, deleting every vertex is always one.
    """
    budget = SolveBudget(forbidden=forbidden, node_cap=node_cap)
    _check_budget(inst, budget)
    best = _Search(inst, budget.forbidden, budget.node_cap).minimum(None)
    if best is None and not budget.forbidden:
        raise AssertionError("deleting all vertices always hits every obstacle")
    return None if best is None else len(best)
