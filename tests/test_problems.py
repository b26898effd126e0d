import heapq
import random
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from essentia import problems
from essentia.errors import InputError
from essentia.graphs import Graph, check_weights
from essentia.problems import (
    NO_POTENTIAL,
    Instance,
    Problem,
    all_induced_p4s,
    cheapest_obstacle,
    find_violated_obstacle,
    is_solution,
    target_potential,
)
from essentia.lab import gen_matching_apex, gen_star_multicut

from conftest import random_graph, random_instance
from oracles import (
    cheapest_paths,
    fraction_violated_obstacle,
    naive_all_obstacle_sets,
    naive_is_solution,
    naive_minimal_obstacle_sets,
    sequential_cheapest_obstacle,
)


def small_weights(n, rng):
    out = []
    for _ in range(n):
        den = rng.randint(2, 6)
        out.append(F(rng.randint(0, den), den))
    return tuple(out)


def weight(ob, w):
    return sum((w[u] for u in ob), F(0))


class TestIsSolution:
    def test_star_center_hits_all_pairs(self):
        inst = gen_star_multicut(5).instance
        assert is_solution(inst, {0})

    def test_all_vertices_always_solve(self):
        for problem in Problem:
            inst = random_instance(problem, 6, 11)
            assert is_solution(inst, set(range(6)))

    def test_p4_needs_a_deletion(self):
        inst = Instance(Problem.COGRAPH_DELETION, Graph(4, False, [(0, 1), (1, 2), (2, 3)]))
        assert not is_solution(inst, set())
        assert is_solution(inst, {2})

    def test_float_vertex_id_is_input_error(self):
        # 0.0 == 0, but a float is not a vertex id
        with pytest.raises(InputError, match=r"^solution vertex must be an int, got 0\.0$"):
            is_solution(gen_star_multicut(3).instance, {0.0})

    def test_string_vertex_id_is_input_error(self):
        with pytest.raises(InputError, match=r"^solution vertex must be an int, got '0'$"):
            is_solution(gen_star_multicut(3).instance, {"0"})

    def test_bool_vertex_id_is_input_error(self):
        with pytest.raises(InputError, match=r"^solution vertex must be an int, got True$"):
            is_solution(gen_star_multicut(3).instance, {True})

    def test_none_is_input_error(self):
        with pytest.raises(InputError, match=r"^solution must be an iterable of vertices, got None$"):
            is_solution(gen_star_multicut(3).instance, None)

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_checker(self, problem, seed):
        rng = random.Random(seed)
        inst = random_instance(problem, 7, seed)
        for _ in range(12):
            x = set(rng.sample(range(7), rng.randint(0, 7)))
            assert is_solution(inst, x) == naive_is_solution(inst, x)

    @pytest.mark.parametrize("seed", range(6))
    def test_supersets_of_solutions_solve(self, seed):
        rng = random.Random(seed * 5 + 1)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, seed * 5 + 1)
        for _ in range(10):
            x = set(rng.sample(range(7), rng.randint(0, 7)))
            if is_solution(inst, x):
                extra = set(rng.sample(range(7), rng.randint(0, 7)))
                assert is_solution(inst, x | extra)


@st.composite
def bench_feasibility_inputs(draw):
    """An instance at the benchmark's solve-exact sizes and a vertex set.

    n is 26-45 with a mean degree about the benchmark's for every family
    but cograph deletion, which has n 10-16 at edge probability 1/2 (the
    reference checks every quadruple).  The set takes each vertex with one
    drawn probability, so both answers come up on every family.
    """
    problem = draw(st.sampled_from(list(Problem)))
    seed = draw(st.integers(0, 10**6))
    if problem is Problem.COGRAPH_DELETION:
        n = draw(st.integers(10, 16))
        g = random_graph(n, seed, False, 0.5)
    else:
        n = draw(st.integers(26, 45))
        degree = draw(st.sampled_from([2.0, 2.4, 2.8]))
        g = random_graph(n, seed, problem.directed, degree / (n - 1))
    terminals = ()
    if problem.uses_terminals:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        terminals = tuple(random.Random(seed).sample(pairs, draw(st.integers(4, 8))))
    rng = random.Random(seed + 1)
    keep = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 0.97]))
    x = frozenset(u for u in range(n) if rng.random() < keep)
    return Instance(problem, g, terminals), x


class TestIsSolutionAtBenchSizes:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bench_feasibility_inputs())
    def test_matches_naive_checker(self, case):
        inst, x = case
        assert is_solution(inst, x) == naive_is_solution(inst, x)


class TestSeparationOracle:
    def test_star_zero_weights_returns_leaf_center_leaf(self):
        inst = gen_star_multicut(4).instance
        assert find_violated_obstacle(inst, (F(0),) * 5) == (1, 0, 2)

    def test_matching_apex_half_weights_feasible(self):
        # apex neighbors at 1/2: every induced P4 carries two of them
        inst = gen_matching_apex(5).instance
        w = [F(0)] * inst.n
        for i in range(1, 6):
            w[2 * i - 1] = F(1, 2)
        assert find_violated_obstacle(inst, tuple(w)) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_vertex_cover_matches_edge_scan(self, seed):
        rng = random.Random(300 + seed)
        inst = random_instance(Problem.VERTEX_COVER, 7, seed)
        w = small_weights(7, rng)
        ob = find_violated_obstacle(inst, w)
        light = [e for e in inst.graph.edges if w[e[0]] + w[e[1]] < 1]
        if ob is None:
            assert not light
        else:
            assert ob in light  # edges are witnessed in sorted order
            assert weight(ob, w) == min(w[a] + w[b] for a, b in inst.graph.edges)

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(6))
    def test_sound_and_complete_vs_enumeration(self, problem, seed):
        rng = random.Random(777 + seed)
        inst = random_instance(problem, 6, 50 + seed)
        w = small_weights(6, rng)
        obstacles = naive_all_obstacle_sets(inst)
        violated = {s for s in obstacles if sum((w[u] for u in s), F(0)) < 1}
        ob = find_violated_obstacle(inst, w)
        if ob is None:
            assert not violated  # completeness
        else:
            assert frozenset(ob) in obstacles  # genuine
            assert weight(ob, w) < 1  # sound
            # the oracle returns a minimum-weight obstacle
            assert weight(ob, w) == min(
                sum((w[u] for u in s), F(0)) for s in obstacles
            )


@st.composite
def oracle_inputs(draw, families=tuple(Problem), sizes=(5, 7)):
    """An instance and its weights, in one of four regimes.

    mixed: denominators 1-12 drawn per vertex; equal: every weight 1/3, 1/4
    or 1/5, so many obstacles tie (some at exactly 1); exact: an
    inclusion-minimal obstacle shares weight 1 and every other vertex weighs
    1, so the lightest obstacle weighs exactly 1 (mixed when the instance
    has no obstacle); pinned: mixed weights with one vertex at 0, as a
    pinned LP's.
    Above n = 7 enumerating the obstacles costs too much, so the exact
    regime takes the reference oracle's lightest obstacle under positive
    weights below 1/n, which contains no other obstacle.
    """
    problem = draw(st.sampled_from(families))
    n = draw(st.integers(*sizes))
    inst = random_instance(problem, n, draw(st.integers(0, 10**6)))
    regime = draw(st.sampled_from(["mixed", "equal", "exact", "pinned"]))
    obstacle = None
    if regime == "exact" and n <= 7:
        if naive_minimal_obstacle_sets(inst):
            obstacle = draw(st.sampled_from(sorted(naive_minimal_obstacle_sets(inst), key=sorted)))
    elif regime == "exact":
        light = [F(draw(st.integers(1, 4)), 4 * (n + 1)) for _ in range(n)]
        obstacle = fraction_violated_obstacle(inst, tuple(light))
    if regime == "equal":
        w = [draw(st.sampled_from([F(1, 3), F(1, 4), F(1, 5)]))] * n
    elif obstacle is not None:
        w = [F(1, len(obstacle)) if u in obstacle else F(1) for u in range(n)]
    else:
        w = []
        for _ in range(n):
            den = draw(st.integers(1, 12))
            # light weights half the time, so four-vertex obstacles fall below 1 too
            num = draw(st.one_of(st.integers(0, den // 3), st.integers(0, den)))
            w.append(F(num, den))
        if regime == "pinned":
            pinned = draw(st.integers(0, n - 1))
            w[pinned] = F(0)
    return inst, tuple(w)


PATH_FAMILIES = (Problem.DFVS, Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT)


@st.composite
def search_inputs(draw):
    """An instance of any family, integer vertex costs, a removed set and a bound.

    Costs are 0/1, as exact search prices deletable vertices, half the
    time, and LP numerators over one denominator otherwise; zero costs come
    up in both, so equal-cost obstacles tie.  Dense digraphs have 2-cycles.
    The bound is None or any value up to just past the costliest obstacle.
    """
    problem = draw(st.sampled_from(list(Problem)))
    n = draw(st.integers(1, 9))
    p = draw(st.sampled_from([0.15, 0.3, 0.5]))
    g = random_graph(n, draw(st.integers(0, 10**6)), problem.directed, p)
    terminals = ()
    if problem.uses_terminals and n > 1:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        chosen = st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True)
        terminals = tuple(draw(chosen))
    inst = Instance(problem, g, terminals)
    den = draw(st.one_of(st.just(1), st.integers(2, 12)))
    cost = [draw(st.integers(0, den)) for _ in range(n)]
    removed = draw(st.frozensets(st.integers(0, n - 1), max_size=n // 3))
    below = draw(st.one_of(st.none(), st.integers(0, sum(cost) + 1)))
    return inst, cost, removed, below


class TestCheapestObstacle:
    # two directed cycles: 0-4 and 1-2-3, the latter entered at 3
    CYCLES = Instance(Problem.DFVS, Graph(5, True, [(0, 4), (4, 0), (3, 1), (1, 2), (2, 3)]))

    def test_cycle_in_canonical_rotation(self):
        assert cheapest_obstacle(self.CYCLES, [1] * 5) == (2, (0, 4))
        assert cheapest_obstacle(self.CYCLES, [1, 0, 0, 0, 1]) == (0, (1, 2, 3))
        assert cheapest_obstacle(self.CYCLES, [1] * 5, removed={4}) == (3, (1, 2, 3))
        assert cheapest_obstacle(self.CYCLES, [1] * 5, removed={0, 2}) is None

    def test_below_and_global_least(self):
        assert cheapest_obstacle(self.CYCLES, [1] * 5, below=3) == (2, (0, 4))
        assert cheapest_obstacle(self.CYCLES, [1] * 5, below=2) is None
        # a later least vertex's cost-0 cycle beats the first one's cost-1 cycle
        assert cheapest_obstacle(self.CYCLES, [1, 0, 0, 0, 0]) == (0, (1, 2, 3))
        assert cheapest_obstacle(self.CYCLES, [1, 0, 0, 0, 0], below=1) == (0, (1, 2, 3))
        assert cheapest_obstacle(self.CYCLES, [1, 0, 0, 0, 0], below=0) is None

    def test_terminal_paths_from_the_least_source(self):
        g = Graph(4, False, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(Problem.VERTEX_MULTICUT, g, ((3, 1), (1, 3)))
        assert cheapest_obstacle(inst, [1] * 4) == (3, (1, 2, 3))
        assert cheapest_obstacle(inst, [1] * 4, removed={1}) is None

    def test_later_source_with_a_cheaper_path_wins(self):
        # source 0 reaches its target 1 at cost 1; source 2 reaches 3 at cost 0
        g = Graph(4, False, [(0, 1), (2, 3)])
        inst = Instance(Problem.VERTEX_MULTICUT, g, ((0, 1), (2, 3)))
        assert cheapest_obstacle(inst, [1, 0, 0, 0]) == (0, (2, 3))
        assert cheapest_obstacle(inst, [1, 0, 0, 0], removed={3}) == (1, (0, 1))
        assert cheapest_obstacle(inst, [1, 0, 0, 0], removed={3}, below=1) is None

    def test_two_cycles_and_zero_cost_ties(self):
        # 2-cycles 0-1, 0-2 and 1-2 all cost 0; the least order wins
        g = Graph(3, True, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        inst = Instance(Problem.DFVS, g)
        assert cheapest_obstacle(inst, [0, 0, 0]) == (0, (0, 1))
        assert cheapest_obstacle(inst, [0, 0, 0], removed={1}) == (0, (0, 2))
        assert cheapest_obstacle(inst, [1, 0, 0]) == (0, (1, 2))
        assert cheapest_obstacle(inst, [0, 0, 0], removed={0, 1}) is None

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(search_inputs())
    def test_matches_the_search_per_origin(self, case):
        inst, cost, removed, below = case
        want = sequential_cheapest_obstacle(inst, cost, removed, below)
        assert cheapest_obstacle(inst, cost, removed, below) == want

    def test_listed_families_tie_to_the_least_witness(self):
        # P5: edges and the P4s 0-1-2-3 and 1-2-3-4, all tied under cost 0
        g = Graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4)])
        cover, p4s = Instance(Problem.VERTEX_COVER, g), Instance(Problem.COGRAPH_DELETION, g)
        assert cheapest_obstacle(cover, [0] * 5) == (0, (0, 1))
        assert cheapest_obstacle(cover, [1, 1, 0, 0, 1]) == (0, (2, 3))
        assert cheapest_obstacle(cover, [0] * 5, removed={1, 3}) is None
        assert cheapest_obstacle(p4s, [0] * 5) == (0, (0, 1, 2, 3))
        assert cheapest_obstacle(p4s, [1, 0, 0, 0, 0]) == (0, (1, 2, 3, 4))
        assert cheapest_obstacle(p4s, [1, 0, 0, 0, 0], below=0) is None
        assert cheapest_obstacle(p4s, [0] * 5, removed={0}) == (0, (1, 2, 3, 4))
        assert cheapest_obstacle(p4s, [0] * 5, removed={2}) is None


@st.composite
def steered_search_inputs(draw):
    """A multicut query with 0/1 costs, and potentials for its sources.

    The query costs 0 on a zero set Z and 1 elsewhere, removes R and has a
    bound.  The potentials come from `target_potential`, the least costs
    to each source's targets, computed under a zero set containing Z and
    in G minus a subset of R: the two reuses exact search makes of one
    vector (one blocked set, any removed set).
    """
    problem = draw(st.sampled_from([Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT]))
    n = draw(st.integers(2, 12))
    p = draw(st.sampled_from([0.15, 0.3, 0.5]))
    g = random_graph(n, draw(st.integers(0, 10**6)), problem.directed, p)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    terminals = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True)))
    inst = Instance(problem, g, terminals)
    vertices = st.integers(0, n - 1)
    zero = draw(st.frozensets(vertices, max_size=n // 2))
    removed = draw(st.frozensets(vertices, max_size=n // 3))
    cost = [0 if u in zero else 1 for u in range(n)]
    wider = zero | draw(st.frozensets(vertices, max_size=n // 3))
    earlier = draw(st.frozensets(st.sampled_from(sorted(removed)))) if removed else removed
    kept = Graph(n, g.directed, [e for e in g.edges if earlier.isdisjoint(e)])
    wide_cost = [0 if u in wider else 1 for u in range(n)]
    potential = {s: target_potential(kept, wide_cost, ts) for s, ts in inst.targets_by_source}
    below = draw(st.one_of(st.none(), st.integers(0, n + 1)))
    return inst, cost, removed, below, potential


class TestSteeredSearch:
    """`cheapest_obstacle` steered by potentials (A*) answers as unsteered."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(steered_search_inputs())
    def test_matches_the_search_per_origin(self, case):
        inst, cost, removed, below, potential = case
        pushed, heappush = [], heapq.heappush

        def recording_push(heap, label):
            pushed.append(label)
            heappush(heap, label)

        with mock.patch.object(problems.heapq, "heappush", recording_push):
            got = cheapest_obstacle(inst, cost, removed, below, potential)
        assert got == sequential_cheapest_obstacle(inst, cost, removed, below)
        # a vertex without a potential is never entered
        assert all(potential[path[0]][path[-1]] != NO_POTENTIAL for _, path in pushed)

    @pytest.mark.parametrize("problem", [Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT])
    @pytest.mark.parametrize("seed", range(4))
    def test_potentials_are_the_least_costs_to_the_targets(self, problem, seed):
        # against a search from every vertex: the cheapest path from u to a
        # target costs u's own cost plus u's potential
        g = random_graph(16, seed, problem.directed, 0.12)
        rng = random.Random(seed)
        pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
        inst = Instance(problem, g, tuple(rng.sample(pairs, 5)))
        cost = [rng.randrange(2) for _ in range(g.n)]
        for _, targets in inst.targets_by_source:
            h = target_potential(g, cost, targets)
            for u in range(g.n):
                if u in targets:
                    assert h[u] == 0
                    continue
                found = cheapest_obstacle(Instance(problem, g, [(u, t) for t in targets]), cost)
                assert h[u] == (NO_POTENTIAL if found is None else found[0] - cost[u])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.booleans(),
        st.integers(1, 14),
        st.integers(0, 10**6),
        st.sampled_from([0.1, 0.25, 0.5]),
        st.data(),
    )
    def test_a_lowered_potential_is_the_cold_build(self, directed, n, seed, p, data):
        # a chain of cost drops, each lowering the previous vector in place
        # of a build from scratch; sparse graphs leave vertices unreached
        g = random_graph(n, seed, directed, p)
        vertices = st.integers(0, n - 1)
        targets = data.draw(st.frozensets(vertices, min_size=1))
        cost = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        h = target_potential(g, cost, targets)
        for _ in range(data.draw(st.integers(1, 4))):
            fell = sorted(u for u in data.draw(st.frozensets(vertices)) if cost[u])
            for u in fell:
                cost[u] = 0
            h = target_potential(g, cost, targets, (h, fell))
            assert h == target_potential(g, cost, targets)

    def test_a_lowered_capped_potential_is_the_cold_build(self):
        # a 300-vertex path into the target 0, and 20 vertices that reach
        # nothing: values past NO_POTENTIAL - 1 are capped, and lowering the
        # capped ones gives the bytes a cold build gives
        n = 320
        g = Graph(n, True, [(u + 1, u) for u in range(299)] + [(u, u + 1) for u in range(300, n - 1)])
        rng = random.Random(7)
        cost = [1] * n
        h = target_potential(g, cost, {0})
        assert h[299] == NO_POTENTIAL - 1 and h[300:] == bytes([NO_POTENTIAL]) * 20
        for _ in range(8):
            fell = sorted(rng.sample([u for u in range(n) if cost[u]], 4))
            for u in fell:
                cost[u] = 0
            h = target_potential(g, cost, {0}, (h, fell))
            assert h == target_potential(g, cost, {0})
        assert NO_POTENTIAL - 1 in h

    def test_a_vertex_that_reaches_no_target_is_never_entered(self):
        # 0 -> 1 -> 2 with a dead end 0 -> 3 -> 4; the source is 0, the target 2
        g = Graph(5, True, [(0, 1), (1, 2), (0, 3), (3, 4)])
        inst = Instance(Problem.DIRECTED_VERTEX_MULTICUT, g, ((0, 2),))
        potential = {0: target_potential(g, [1, 1, 1, 0, 0], {2})}
        assert list(potential[0]) == [2, 1, 0, NO_POTENTIAL, NO_POTENTIAL]
        pops, heappop = [], heapq.heappop

        def recording_pop(heap):
            pops.append(heappop(heap))
            return pops[-1]

        with mock.patch.object(problems.heapq, "heappop", recording_pop):
            got = cheapest_obstacle(inst, [1, 1, 1, 0, 0], potential=potential)
        assert got == (3, (0, 1, 2)) == cheapest_obstacle(inst, [1, 1, 1, 0, 0])
        assert pops == [(3, (0,)), (3, (0, 1)), (3, (0, 1, 2))]


class TestIntegerOracleMatchesFractionReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(oracle_inputs())
    def test_same_obstacle_or_both_none(self, case):
        inst, w = case
        assert find_violated_obstacle(inst, w) == fraction_violated_obstacle(inst, w)

    def test_obstacle_of_weight_exactly_one_is_not_violated(self):
        triangle = Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
        assert find_violated_obstacle(triangle, (F(1, 3),) * 3) is None
        assert find_violated_obstacle(triangle, (F(1, 3), F(1, 3), F(1, 4))) == (0, 1, 2)

    def test_equal_weights_tie_to_least_witness(self):
        # P5 has the induced P4s 0-1-2-3 and 1-2-3-4, both of weight 4/5
        inst = Instance(Problem.COGRAPH_DELETION, Graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        assert find_violated_obstacle(inst, (F(1, 5),) * 5) == (0, 1, 2, 3)


class TestPathOraclesAtBenchSizes:
    """The DFVS and multicut searches at n = 10-14, as the benchmark runs them.

    Besides the witness, every label the one-heap search pops is checked.
    Labels pop in nondecreasing (cost, path) order, and the first pop of
    each (origin, vertex) state is that state's cheapest label in a search
    from its origin alone: a DFVS origin v searches G[v..n-1], a multicut
    source all of G.  The settled states are exactly those whose labels are
    less than the stop key, the returned obstacle or else (den,), plus the
    returned obstacle itself: none is settled at or past it.
    """

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(oracle_inputs(families=PATH_FAMILIES, sizes=(10, 14)))
    def test_same_witness_and_bounded_searches(self, case):
        inst, w = case
        g = inst.graph
        pops, heappop = [], heapq.heappop

        def recording_pop(heap):
            label = heappop(heap)
            pops.append(label)
            return label

        with mock.patch.object(problems.heapq, "heappop", recording_pop):
            got = find_violated_obstacle(inst, w)
        assert got == fraction_violated_obstacle(inst, w)

        den, nums = check_weights(g, w)
        found = cheapest_obstacle(inst, nums, below=den)
        stop = found if found is not None else (den,)
        assert pops == sorted(pops)
        assert all(label < stop for label in pops[:-1])
        if found is not None:
            assert pops[-1] == found
        settled = {}
        for label in pops:
            if label < stop or label == found:
                settled.setdefault((label[1][0], label[1][-1]), label)
        if inst.problem is Problem.DFVS:
            regions = [(v, frozenset(range(v))) for v in range(g.n)]
        else:
            regions = [(s, frozenset()) for s, _ in inst.targets_by_source]
        expected = {
            (origin, label[1][-1]): label
            for origin, region in regions
            for label in cheapest_paths(g, nums, (origin,), region)
            if label < stop
        }
        if found is not None:
            expected[found[1][0], found[1][-1]] = found
        assert settled == expected


def minimal_obstacles_from_is_solution(inst):
    """Inclusion-minimal obstacle vertex sets, read off `is_solution` alone.

    A vertex set O contains an obstacle exactly when deleting every vertex
    outside O leaves one, that is, when the rest of the graph is not a
    solution.
    """
    everything = frozenset(range(inst.n))
    holds = [
        frozenset(sub)
        for size in range(inst.n + 1)
        for sub in combinations(range(inst.n), size)
        if not is_solution(inst, everything - frozenset(sub))
    ]
    return {o for o in holds if not any(h < o for h in holds)}


class TestEnumerateMinimal:
    def test_triangle_cycle(self):
        inst = Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
        obs = minimal_obstacles_from_is_solution(inst)
        assert sorted(sorted(o) for o in obs) == [[0, 1, 2]]

    def test_p5_has_two_p4s(self):
        inst = Instance(
            Problem.COGRAPH_DELETION, Graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4)])
        )
        obs = minimal_obstacles_from_is_solution(inst)
        assert sorted(sorted(o) for o in obs) == [[0, 1, 2, 3], [1, 2, 3, 4]]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_multicut_matches_bruteforce(self, seed):
        inst = random_instance(Problem.VERTEX_MULTICUT, 7, 400 + seed)
        got = minimal_obstacles_from_is_solution(inst)
        assert got == naive_minimal_obstacle_sets(inst)

    @pytest.mark.parametrize("problem", [Problem.DFVS, Problem.DIRECTED_VERTEX_MULTICUT])
    @pytest.mark.parametrize("seed", range(4))
    def test_directed_families_match_bruteforce(self, problem, seed):
        inst = random_instance(problem, 6, 900 + seed)
        got = minimal_obstacles_from_is_solution(inst)
        assert got == naive_minimal_obstacle_sets(inst)


class TestP4Scan:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_quadruple_census(self, seed):
        from oracles import induces_p4

        g = random_graph(8, 600 + seed, p=0.5)
        got = {frozenset(q) for q in all_induced_p4s(g)}
        want = {frozenset(q) for q in combinations(range(8), 4) if induces_p4(g, q)}
        assert got == want

    def test_each_p4_listed_once_in_path_order(self):
        g = Graph(4, False, [(0, 1), (1, 2), (2, 3)])
        quads = all_induced_p4s(g)
        assert len(quads) == 1
        a, b, c, d = quads[0]
        assert g.has_arc(a, b) and g.has_arc(b, c) and g.has_arc(c, d)
        assert not g.has_arc(a, c) and not g.has_arc(a, d) and not g.has_arc(b, d)


class TestInstanceValidation:
    def test_directedness_must_match_problem(self):
        with pytest.raises(InputError, match=r"^dfvs requires a directed graph$"):
            Instance(Problem.DFVS, Graph(3, False, [(0, 1)]))
        with pytest.raises(InputError, match=r"^vertex-cover requires an undirected graph$"):
            Instance(Problem.VERTEX_COVER, Graph(3, True, [(0, 1)]))

    @pytest.mark.parametrize("problem", [Problem.VERTEX_MULTICUT, Problem.VERTEX_COVER])
    def test_terminals_that_are_not_iterable(self, problem):
        g = Graph(3, False, [(0, 1)])
        with pytest.raises(InputError, match=r"^terminals must be an iterable of pairs, got None$"):
            Instance(problem, g, None)

    def test_terminals_only_for_multicut(self):
        with pytest.raises(InputError):
            Instance(Problem.VERTEX_COVER, Graph(3, False, [(0, 1)]), ((0, 1),))

    def test_targets_grouped_by_source_once(self):
        g = Graph(3, False, [(0, 1)])
        inst = Instance(Problem.VERTEX_MULTICUT, g, ((2, 0), (0, 1), (0, 2)))
        assert inst.targets_by_source == ((0, frozenset({1, 2})), (2, frozenset({0})))
        assert "targets_by_source" not in repr(inst)
        assert Instance(Problem.VERTEX_COVER, g).targets_by_source == ()

    def test_terminal_pairs_validated(self):
        g = Graph(3, False, [(0, 1)])
        with pytest.raises(InputError, match="out of range"):
            Instance(Problem.VERTEX_MULTICUT, g, ((0, 9),))
        with pytest.raises(InputError, match="coincide"):
            Instance(Problem.VERTEX_MULTICUT, g, ((1, 1),))
        with pytest.raises(InputError, match="duplicate"):
            Instance(Problem.VERTEX_MULTICUT, g, ((0, 1), (0, 1)))

    @pytest.mark.parametrize("pair", [(0.9, "2"), (0, 2.0), (True, 2), ("0", 2)])
    def test_terminal_ids_are_not_coerced(self, pair):
        g = Graph(3, False, [(0, 1)])
        with pytest.raises(InputError, match=r"^terminals\[1\]: vertex ids must be ints"):
            Instance(Problem.VERTEX_MULTICUT, g, ((0, 1), pair))

    @pytest.mark.parametrize("pair", [(0, 1, 2), (0,), 5])
    def test_terminal_that_is_not_a_pair(self, pair):
        g = Graph(3, False, [(0, 1)])
        with pytest.raises(InputError, match=r"^terminals\[0\]: expected a pair of vertices"):
            Instance(Problem.VERTEX_MULTICUT, g, (pair,))

    def test_terminal_lists_are_stored_as_tuples(self):
        g = Graph(3, False, [(0, 1)])
        inst = Instance(Problem.VERTEX_MULTICUT, g, [[0, 2], [1, 2]])
        assert inst.terminals == ((0, 2), (1, 2))
