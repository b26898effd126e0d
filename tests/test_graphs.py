import random
from fractions import Fraction as F
from math import gcd

import pytest

from essentia.errors import InfeasibleSeparatorError, InputError, SizeCapError
from essentia.graphs import (
    Graph,
    MAX_VERTICES,
    _check_vertex_count,
    _double_cover_mates,
    check_weights,
    min_vertex_separator,
)
from essentia.lab import gen_star_multicut
from essentia.problems import Instance, Problem, find_violated_obstacle

from conftest import random_graph
from oracles import (
    aux_min_vertex_separator,
    cheapest_paths,
    min_weight_cycle_through,
    naive_min_cycle_through,
    naive_min_separator_size,
    naive_shortest_weighted_path,
    nx_double_cover_matching,
    shortest_weighted_path,
)


def star(m):
    return Graph(m + 1, False, [(0, i) for i in range(1, m + 1)])


def rational_weights(n, rng):
    out = []
    for _ in range(n):
        den = rng.randint(1, 6)
        out.append(F(rng.randint(0, den), den))
    return tuple(out)


def path_cases(seeds):
    """Seeds of the plain rational-weight cases (ids kept as the bare seed),
    then the same seeds with a removed set, and with 0/1 costs plus a removed
    set as exact search uses them."""
    plain = [pytest.param(seed, "rational", id=str(seed)) for seed in seeds]
    return plain + [
        pytest.param(seed, variant, id=f"{variant}-{seed}")
        for variant in ("removed", "zero-one")
        for seed in seeds
    ]


def vary_costs(w, variant, rng):
    """(costs, removed set) for one case; the rational case is left as is."""
    n = len(w)
    if variant == "rational":
        return w, frozenset()
    if variant == "zero-one":
        w = tuple(rng.randint(0, 1) for _ in range(n))
    return w, frozenset(u for u in range(n) if rng.random() < 0.25)


class TestShortestWeightedPath:
    def test_star_leaf_to_leaf(self):
        g = star(6)
        w = tuple([F(0)] + [F(1, 2)] * 6)
        assert shortest_weighted_path(g, w, [1], [2]) == (F(1), (1, 0, 2))

    def test_single_vertex_source_equals_target(self):
        g = Graph(1, False, [])
        assert shortest_weighted_path(g, (F(0),), [0], [0]) == (F(0), (0,))

    def test_unreachable_returns_none(self):
        g = Graph(3, False, [(0, 1)])
        assert shortest_weighted_path(g, (F(1), F(1), F(1)), [0], [2]) is None

    @pytest.mark.parametrize("seed, variant", path_cases(range(30)))
    def test_random_digraph_matches_enumeration(self, seed, variant):
        rng = random.Random(seed)
        g = random_graph(5, rng.randrange(1 << 30), directed=True, p=0.4)
        w = rational_weights(5, rng)
        s, t = rng.randrange(5), rng.randrange(5)
        w, removed = vary_costs(w, variant, rng)
        got = shortest_weighted_path(g, w, [s], [t], removed)
        want = naive_shortest_weighted_path(g, w, [s], [t], removed)
        assert got == want  # distance and lex-least path both

    @pytest.mark.parametrize("seed, variant", path_cases(range(10)))
    def test_multi_source_target_matches_enumeration(self, seed, variant):
        rng = random.Random(1000 + seed)
        g = random_graph(6, rng.randrange(1 << 30), directed=False, p=0.4)
        w = rational_weights(6, rng)
        sources = rng.sample(range(6), 2)
        targets = rng.sample(range(6), 2)
        w, removed = vary_costs(w, variant, rng)
        assert shortest_weighted_path(
            g, w, sources, targets, removed
        ) == naive_shortest_weighted_path(g, w, sources, targets, removed)

    @pytest.mark.parametrize("seed, variant", path_cases(range(30)))
    def test_below_bound_matches_enumeration(self, seed, variant):
        # the bounds are the labels of every other s-u path, the answer
        # itself, labels just above and below it, and the two extremes
        rng = random.Random(seed)
        g = random_graph(5, rng.randrange(1 << 30), directed=True, p=0.4)
        w = rational_weights(5, rng)
        s, t = rng.randrange(5), rng.randrange(5)
        w, removed = vary_costs(w, variant, rng)
        want = naive_shortest_weighted_path(g, w, [s], [t], removed)
        bounds = [(F(-1), ()), (F(6), ())]
        for u in range(5):
            label = naive_shortest_weighted_path(g, w, [s], [u], removed)
            if label is not None:
                bounds.append(label)
        if want is not None:
            cost, path = want
            bounds += [
                (cost, path + (5,)),
                (cost, path[:-1]),
                (cost + F(1, 7), ()),
                (cost - F(1, 7), path),
            ]
        for below in bounds:
            got = shortest_weighted_path(g, w, [s], [t], removed, below)
            assert got == (want if want is not None and want < below else None), below

    def test_reported_distance_recomputes_bit_exact(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(7, rng.randrange(1 << 30), p=0.5)
            w = rational_weights(7, rng)
            found = shortest_weighted_path(g, w, [0], [6])
            if found is None:
                continue
            dist, path = found
            assert sum((w[u] for u in path), F(0)) == dist
            assert len(set(path)) == len(path)  # simple

    def test_zero_weight_ties_break_lexicographically(self):
        # two equal-weight routes 0-1-3 and 0-2-3; the lex-smaller wins
        g = Graph(4, False, [(0, 1), (0, 2), (1, 3), (2, 3)])
        w = (F(0), F(0), F(0), F(0))
        assert shortest_weighted_path(g, w, [0], [3])[1] == (0, 1, 3)

    def test_removed_vertices_are_avoided(self):
        # 0-1-3 is cheaper than 0-2-3 until 1 is removed
        g = Graph(4, False, [(0, 1), (0, 2), (1, 3), (2, 3)])
        w = (F(0), F(1, 4), F(1, 2), F(0))
        assert shortest_weighted_path(g, w, [0], [3]) == (F(1, 4), (0, 1, 3))
        assert shortest_weighted_path(g, w, [0], [3], frozenset({1})) == (F(1, 2), (0, 2, 3))
        assert shortest_weighted_path(g, w, [0, 1], [3], frozenset({0})) == (F(1, 4), (1, 3))
        assert shortest_weighted_path(g, w, [0], [3], frozenset({3})) is None
        assert shortest_weighted_path(g, w, [0], [3], frozenset({1, 2})) is None

    def test_weight_validation(self):
        # the path search trusts its weights; the oracle validates them on entry
        inst = Instance(Problem.VERTEX_MULTICUT, star(2), ((1, 2),))
        with pytest.raises(InputError):
            find_violated_obstacle(inst, (F(0), F(1)))  # wrong length
        with pytest.raises(InputError):
            find_violated_obstacle(inst, (F(0), F(1), F(3, 2)))  # > 1


class TestCheckWeights:
    """The one pass over the LP weights: validation plus integer numerators."""

    @pytest.mark.parametrize("seed", range(10))
    def test_least_common_denominator_and_numerators(self, seed):
        rng = random.Random(900 + seed)
        n = rng.randint(1, 12)
        w = []
        for _ in range(n):
            den = rng.randint(1, 12)
            w.append(F(rng.randint(0, den), den))
        den, nums = check_weights(Graph(n, False, []), tuple(w))
        lcd = 1
        for x in w:
            lcd = lcd * x.denominator // gcd(lcd, x.denominator)
        assert den == lcd
        assert all(nums[u] == w[u] * den for u in range(n))
        assert all(type(a) is int for a in nums)

    def test_examples(self):
        g = Graph(4, False, [])
        assert check_weights(g, (F(0), F(1), F(1, 2), F(2, 3))) == (6, [0, 6, 3, 4])
        assert check_weights(g, (F(0),) * 4) == (1, [0] * 4)
        assert check_weights(Graph(0, False, []), ()) == (1, [])

    def test_fraction_subclass_is_accepted(self):
        class Weight(F):
            pass

        assert check_weights(Graph(2, False, []), (Weight(1, 4), Weight(1))) == (4, [1, 4])

    def test_int_entries_are_accepted(self):
        # the rule FractionalSolution applies: an integer numerator and denominator
        assert check_weights(Graph(3, False, []), (0, F(1, 2), 1)) == (2, [0, 1, 2])
        inst = Instance(Problem.VERTEX_COVER, Graph(3, False, [(0, 1), (1, 2)]))
        assert find_violated_obstacle(inst, (F(1, 2), 1, F(1, 2))) is None
        assert find_violated_obstacle(inst, (1, 0, 0)) == (1, 2)

    @pytest.mark.parametrize("w", [None, 5], ids=["None", "int"])
    def test_non_iterable_vector_is_an_input_error(self, w):
        inst = gen_star_multicut(3).instance
        message = rf"^weight vector must be an iterable, got {w!r}$"
        with pytest.raises(InputError, match=message):
            check_weights(inst.graph, w)
        with pytest.raises(InputError, match=message):
            find_violated_obstacle(inst, w)

    def test_an_iterator_is_read_once(self):
        # the vector is read once, as a tuple, so its length is never asked
        inst = gen_star_multicut(3).instance
        w = (F(0), F(1, 4), F(1, 4), F(1, 4))
        assert check_weights(inst.graph, iter(w)) == (4, [0, 1, 1, 1])
        assert find_violated_obstacle(inst, iter(w)) == find_violated_obstacle(inst, w) == (1, 0, 2)

    def test_bool_entries_are_refused(self):
        # True passed as 1 once; the weight test refuses bools as the vertex-id test does
        with pytest.raises(InputError, match=r"^weight of vertex 0 is not an exact rational: True$"):
            check_weights(Graph(2, False, []), (True, 0))
        inst = gen_star_multicut(3).instance
        with pytest.raises(InputError, match=r"^weight of vertex 0 is not an exact rational: True$"):
            find_violated_obstacle(inst, (True, False, False, False))
        with pytest.raises(InputError, match=r"^weight of vertex 2 is not an exact rational: False$"):
            find_violated_obstacle(inst, (1, 0, False, 0))

    @pytest.mark.parametrize(
        "bad",
        [0.5, "1", F(-1, 2), -1, F(3, 2), 2],
        ids=["float", "str", "negative", "negative-int", "above-one", "int-above-one"],
    )
    def test_invalid_entry_raises_through_the_oracle(self, bad):
        inst = Instance(Problem.VERTEX_COVER, Graph(3, False, [(0, 1), (1, 2)]))
        with pytest.raises(InputError):
            find_violated_obstacle(inst, (F(1, 2), bad, F(1, 2)))

    def test_wrong_length_raises_through_the_oracle(self):
        inst = Instance(Problem.VERTEX_COVER, Graph(3, False, [(0, 1), (1, 2)]))
        with pytest.raises(InputError):
            find_violated_obstacle(inst, (F(1, 2), F(1, 2)))
        with pytest.raises(InputError):
            find_violated_obstacle(inst, (F(1, 2),) * 4)


class TestMinWeightCycleThrough:
    def test_triangle_equal_thirds(self):
        g = Graph(3, True, [(0, 1), (1, 2), (2, 0)])
        w = (F(1, 3),) * 3
        assert min_weight_cycle_through(g, w, 0) == (F(1), (0, 1, 2))

    def test_dag_has_no_cycle(self):
        g = Graph(4, True, [(0, 1), (1, 2), (0, 3), (3, 2)])
        assert min_weight_cycle_through(g, (F(0),) * 4, 1) is None

    def test_two_cycle(self):
        g = Graph(2, True, [(0, 1), (1, 0)])
        w = (F(1, 4), F(1, 2))
        assert min_weight_cycle_through(g, w, 0) == (F(3, 4), (0, 1))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_digraph_matches_cycle_enumeration(self, seed):
        rng = random.Random(40 + seed)
        g = random_graph(6, rng.randrange(1 << 30), directed=True, p=0.35)
        w = rational_weights(6, rng)
        v = rng.randrange(6)
        got = min_weight_cycle_through(g, w, v)
        want = naive_min_cycle_through(g, w, v)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want[0]
            # returned cycle must be genuine: arcs close up and weight matches
            dist, cyc = got
            assert cyc[0] == v and len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                assert g.has_arc(a, b)
            assert sum((w[u] for u in cyc), F(0)) == dist

    def test_requires_directed_graph(self):
        from essentia.errors import PreconditionError

        with pytest.raises(PreconditionError):
            min_weight_cycle_through(star(3), (F(0),) * 4, 0)


class TestMinVertexSeparator:
    def test_star_center_to_two_leaves(self):
        g = star(6)
        cut = min_vertex_separator(g, [0], [1, 2], frozenset({0}))
        assert cut == frozenset({1, 2})

    def test_two_parallel_disjoint_paths(self):
        # 0 -> 1 -> 2 -> 5 and 0 -> 3 -> 4 -> 5
        g = Graph(6, True, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)])
        cut = min_vertex_separator(g, [0], [5], frozenset({0, 5}))
        assert len(cut) == 2

    def test_infeasible_when_adjacent_and_forbidden(self):
        g = Graph(2, True, [(0, 1)])
        with pytest.raises(InfeasibleSeparatorError):
            min_vertex_separator(g, [0], [1], frozenset({0, 1}))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_digraph_matches_subset_enumeration(self, seed):
        rng = random.Random(90 + seed)
        g = random_graph(8, rng.randrange(1 << 30), directed=True, p=0.25)
        sources = set(rng.sample(range(8), 2))
        targets = set(rng.sample(range(8), 2))
        want = naive_min_separator_size(g, sources, targets)
        cut = min_vertex_separator(g, sources, targets)
        assert len(cut) == want
        # returned set really separates
        import networkx as nx

        from oracles import to_nx

        gx = to_nx(g, cut)
        assert not any(
            nx.has_path(gx, s, t)
            for s in sources - cut
            for t in targets - cut
        ) and not (sources & targets - cut)

    @pytest.mark.parametrize("seed", range(10))
    def test_forbidden_vertices_never_chosen(self, seed):
        rng = random.Random(200 + seed)
        g = random_graph(7, rng.randrange(1 << 30), directed=True, p=0.3)
        sources, targets = {0}, {6}
        forbidden = frozenset(rng.sample(range(1, 6), 2))
        try:
            cut = min_vertex_separator(g, sources, targets, forbidden)
        except InfeasibleSeparatorError:
            assert naive_min_separator_size(g, sources, targets, forbidden) is None
            return
        assert not (cut & forbidden)
        assert len(cut) == naive_min_separator_size(g, sources, targets, forbidden)

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    def test_same_set_as_the_auxiliary_vertex_formulation(self, directed):
        # the source-closest minimum cut is the same for every maximum flow,
        # so the set, not only its size, matches the earlier formulation
        cuts = infeasible = 0
        for seed in range(150):
            rng = random.Random(500 + seed)
            n = rng.randint(2, 10)
            g = random_graph(n, rng.randrange(1 << 30), directed=directed, p=rng.choice([0.2, 0.35, 0.5]))
            sources = rng.sample(range(n), rng.randint(1, min(3, n)))
            targets = rng.sample(range(n), rng.randint(1, min(3, n)))
            forbidden = frozenset(u for u in range(n) if rng.random() < 0.3)
            try:
                want = aux_min_vertex_separator(g, sources, targets, forbidden)
            except InfeasibleSeparatorError:
                infeasible += 1
                with pytest.raises(InfeasibleSeparatorError):
                    min_vertex_separator(g, sources, targets, forbidden)
                continue
            assert min_vertex_separator(g, sources, targets, forbidden) == want
            cuts += len(want) >= 2
        assert cuts >= 20 and infeasible >= 10

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    def test_long_forbidden_path_is_infeasible(self, directed):
        # 0 - 1 - ... - 9 all forbidden, beside two free routes 0 - 10 - 9 and
        # 0 - 11 - 9: the free routes carry 2 units, then each search pushes
        # one unit down the forbidden path until the flow exceeds n = 12
        arcs = [(i, i + 1) for i in range(9)] + [(0, 10), (10, 9), (0, 11), (11, 9)]
        g = Graph(12, directed, arcs)
        path = frozenset(range(10))
        for separator in (min_vertex_separator, aux_min_vertex_separator):
            with pytest.raises(InfeasibleSeparatorError):
                separator(g, [0], [9], path)
        # one free vertex on the path makes it cuttable there
        cut = min_vertex_separator(g, [0], [9], path - {5})
        assert cut == frozenset({5, 10, 11}) == aux_min_vertex_separator(g, [0], [9], path - {5})


    @pytest.mark.parametrize(
        "ids, match",
        [
            (([True], [2]), r"^source vertex must be an int, got True$"),
            (([0.0], [2]), r"^source vertex must be an int, got 0\.0$"),
            (([0], ["2"]), r"^target vertex must be an int, got '2'$"),
        ],
        ids=["ids0", "ids1", "ids2"],
    )
    def test_vertex_ids_that_are_not_ints(self, ids, match):
        g = Graph(3, False, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match=match):
            min_vertex_separator(g, *ids)

    @pytest.mark.parametrize(
        "forbidden, match",
        [
            ({0, 2, True}, r"^forbidden vertex must be an int, got True$"),
            ({0, 2, 9}, r"^forbidden vertex 9 out of range \(n=3\)$"),
            (None, r"^forbidden must be an iterable of vertices, got None$"),
        ],
    )
    def test_forbidden_vertices_are_checked(self, forbidden, match):
        g = Graph(3, False, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match=match):
            min_vertex_separator(g, [0], [2], forbidden)


def matching_size(g, removed=frozenset()):
    """The size of the maximum double-cover matching `_double_cover_mates` finds."""
    return g.n - _double_cover_mates(g, removed).count(None)


class TestDoubleCoverMatching:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_networkx(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(0, 14)
        directed = seed % 3 == 0
        g = random_graph(n, rng.randrange(1 << 30), directed=directed, p=rng.choice([0.1, 0.3, 0.6]))
        removed = frozenset(u for u in range(n) if rng.random() < 0.2)
        assert matching_size(g, removed) == nx_double_cover_matching(g, removed)

    @staticmethod
    def assert_maximum(g, removed, mates):
        assert g.n - mates.count(None) == nx_double_cover_matching(g, removed)
        assert all(m is None for u, m in enumerate(mates) if u in removed)
        pairs = [(u, m) for u, m in enumerate(mates) if m is not None]
        assert all(g.has_arc(u, m) and m not in removed for u, m in pairs)
        assert len({m for _, m in pairs}) == len(pairs)

    @pytest.mark.parametrize("seed", range(30))
    def test_a_warm_started_matching_is_maximum(self, seed):
        # along a chain of removals, each matching starts from the last one;
        # a matching made for an unrelated removed set, neither inside nor
        # containing this one, is a start as good as any
        rng = random.Random(900 + seed)
        n = rng.randint(1, 16)
        g = random_graph(n, rng.randrange(1 << 30), directed=seed % 3 == 0, p=rng.choice([0.15, 0.3, 0.6]))
        removed: frozenset[int] = frozenset()
        mates = _double_cover_mates(g, removed)
        while len(removed) < n:
            left = sorted(set(range(n)) - removed)
            removed |= frozenset(rng.sample(left, min(len(left), rng.randint(1, 3))))
            mates = _double_cover_mates(g, removed, mates)
            self.assert_maximum(g, removed, mates)
            outside = sorted(set(range(n)) - removed)
            if outside:  # `other` keeps a vertex of `removed` and removes one outside it
                other = frozenset(u for u in range(n) if rng.random() < 0.3) | {rng.choice(outside)}
                other -= {rng.choice(sorted(removed))}
                unrelated = _double_cover_mates(g, other)
                self.assert_maximum(g, removed, _double_cover_mates(g, removed, unrelated))

    def test_odd_cycle_covers_itself(self):
        # the double cover of C_5 is C_10, which has a perfect matching
        g = Graph(5, False, [(i, (i + 1) % 5) for i in range(5)])
        assert matching_size(g) == 5
        assert matching_size(g, frozenset({0})) == 4  # two copies of P_4

    def test_removed_and_isolated_vertices_are_unmatched(self):
        assert matching_size(star(4), frozenset({0})) == 0
        assert matching_size(Graph(3, False, [])) == 0
        assert matching_size(Graph(0, False, [])) == 0

    def test_long_path_needs_no_recursion(self):
        # two copies of P_5000 with 2,500 edges matched in each; a recursive
        # augmenting-path search recurses past Python's default limit here
        n = 5000
        g = Graph(n, False, [(i, i + 1) for i in range(n - 1)])
        assert matching_size(g) == n


class TestGraphDerivedViews:
    def test_in_adj_lists_each_vertex_in_neighbours(self):
        g = Graph(4, True, [(2, 1), (0, 1), (1, 3), (3, 0)])
        assert g.in_adj() == ((3,), (0, 2), (), (1,))
        assert g.in_adj() is g.in_adj()
        undirected = random_graph(9, 4)
        assert undirected.in_adj() is undirected.adj

    def test_hash_is_that_of_equal_graphs(self):
        g, h = Graph(3, True, [(0, 1), (1, 2)]), Graph(3, True, [(1, 2), (0, 1)])
        assert g == h and hash(g) == hash(h) == hash(g)


class TestGraphValidation:
    def test_rejects_self_loops(self):
        with pytest.raises(InputError, match="self-loop"):
            Graph(2, False, [(1, 1)])

    def test_rejects_duplicates_including_reversed_undirected(self):
        with pytest.raises(InputError, match="duplicate"):
            Graph(3, False, [(0, 1), (1, 0)])
        Graph(3, True, [(0, 1), (1, 0)])  # fine when directed

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            Graph(2, False, [(0, 5)])

    def test_rejects_bool_endpoint(self):
        with pytest.raises(InputError, match=r"^edges\[0\]: vertex ids must be ints, got \(True, 2\)$"):
            Graph(3, False, [(True, 2)])

    def test_rejects_float_endpoint(self):
        with pytest.raises(InputError, match=r"^edges\[1\]: vertex ids must be ints, got \(1\.0, 2\)$"):
            Graph(3, False, [(0, 1), (1.0, 2)])

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_rejects_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(InputError, match=r"^vertex count must be a nonnegative int"):
            Graph(n, False, [])

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**30])
    def test_refuses_a_vertex_count_above_the_cap(self, n):
        # refused before anything is allocated per vertex
        with pytest.raises(SizeCapError, match=rf"^vertex count {n} exceeds the cap of {MAX_VERTICES}$"):
            Graph(n, False, [])

    def test_cap_admits_its_own_count(self):
        _check_vertex_count(MAX_VERTICES)  # does not raise

    def test_rejects_string_endpoint(self):
        with pytest.raises(InputError, match=r"^edges\[0\]: vertex ids must be ints, got \('0', 1\)$"):
            Graph(3, True, [("0", 1)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 7])
    def test_rejects_edge_that_is_not_a_pair(self, edge):
        with pytest.raises(InputError, match=r"^edges\[0\]: expected a pair of vertices"):
            Graph(3, False, [edge])

    @pytest.mark.parametrize("directed", ["no", 1, None])
    def test_rejects_directed_that_is_not_a_bool(self, directed):
        with pytest.raises(InputError, match=r"^directed must be a bool, got "):
            Graph(2, directed, [])

    @pytest.mark.parametrize("edges", [None, 7])
    def test_rejects_edges_that_are_not_iterable(self, edges):
        with pytest.raises(InputError, match=r"^edges must be an iterable of pairs, got "):
            Graph(3, False, edges)

    def test_undirected_adjacency_is_symmetric(self):
        g = Graph(4, False, [(0, 1), (2, 3), (1, 3)])
        for u in range(4):
            for v in g.adj[u]:
                assert u in g.adj[v]

    def test_distances_helper_matches_single_pair_calls(self):
        rng = random.Random(3)
        g = random_graph(7, 17, p=0.45)
        w = rational_weights(7, rng)
        labels = list(cheapest_paths(g, w, (0,)))
        assert labels == sorted(labels)  # settled in (cost, path) order
        dist = {path[-1]: d for d, path in labels}
        assert len(dist) == len(labels)  # each vertex settled once
        for t in range(7):
            found = shortest_weighted_path(g, w, [0], [t])
            if found is None:
                assert t not in dist
            else:
                assert dist[t] == found[0]
