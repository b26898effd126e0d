import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import essentia
from essentia import exact, serialize
from essentia.errors import InputError, NodeCapError
from essentia.exact import (
    _INFEASIBLE,
    SolveBudget,
    _Search,
    opt_value,
    solve_exact,
)
from essentia.graphs import Graph
from essentia.lab import gen_matching_apex, gen_star_multicut
from essentia.problems import Instance, Problem, cheapest_obstacle, is_solution

from conftest import random_graph, random_instance
from oracles import (
    lex_least_by_restriction,
    naive_min_solution,
    naive_opt,
    scan_packing_lb,
    scan_violated,
)


PATH_FAMILIES = (Problem.DFVS, Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT)

# the counts of `solve_exact`'s DEBUG record, in its order
RECORD_FIELDS = (
    "minimum_nodes", "lex_nodes", "refuted", "searches", "memo_hits", "lowered", "built", "matchings",
)


def debug_counts(caplog) -> dict[str, int]:
    """The counts of the one DEBUG record `solve_exact` logged, by name."""
    [record] = [r for r in caplog.records if r.name == "essentia.exact"]
    return dict(zip(RECORD_FIELDS, record.args, strict=True))


class TestExamples:
    def test_p4_deletion_picks_lex_least_single_vertex(self):
        inst = Instance(Problem.COGRAPH_DELETION, Graph(4, False, [(0, 1), (1, 2), (2, 3)]))
        got = solve_exact(inst)
        assert got == naive_min_solution(inst)
        assert len(got) == 1

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_star_with_center_forbidden_keeps_one_leaf(self, m):
        inst = gen_star_multicut(m).instance
        got = solve_exact(inst, SolveBudget(forbidden=frozenset({0})))
        assert got == frozenset(range(1, m))  # all leaves but the largest
        assert len(got) == inst.n - 2

    def test_obstacle_free_opt_zero(self):
        inst = Instance(Problem.DFVS, Graph(4, True, [(0, 1), (1, 2)]))
        assert opt_value(inst) == 0 and solve_exact(inst) == frozenset()

    def test_triangle_dfvs_opt_one(self):
        inst = Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
        assert opt_value(inst) == 1

    def test_matching_apex_opt_is_the_apex(self):
        inst = gen_matching_apex(5).instance
        assert opt_value(inst) == 1
        assert solve_exact(inst) == frozenset({0})


class TestAgainstBruteForce:
    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(10))
    def test_min_size_and_lex_order_match(self, problem, seed):
        inst = random_instance(problem, 7, 1000 + seed)
        got = solve_exact(inst)
        want = naive_min_solution(inst)
        assert got == want
        assert is_solution(inst, got)

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("n", [10, 12])
    def test_larger_instances_match_subset_enumeration(self, problem, n):
        inst = random_instance(problem, n, 6000 + n)
        got = solve_exact(inst)
        assert len(got) == naive_opt(inst)
        assert got == naive_min_solution(inst)

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(4))
    def test_larger_instances_with_forbidden_and_budget(self, problem, seed):
        # forbidden vertices force and refute obstacles deep in the search;
        # the budget is the optimum itself and one below it
        inst = random_instance(problem, 10, 7000 + seed)
        forbidden = frozenset(random.Random(seed).sample(range(10), 2))
        want = naive_min_solution(inst, forbidden)
        if want is None:
            assert solve_exact(inst, SolveBudget(forbidden=forbidden)) is None
            return
        k = len(want)
        assert solve_exact(inst, SolveBudget(max_k=k, forbidden=forbidden)) == want
        if k > 0:
            assert solve_exact(inst, SolveBudget(max_k=k - 1, forbidden=forbidden)) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_forbidden_vertices_respected(self, seed):
        rng = random.Random(seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, 2000 + seed)
        forbidden = frozenset(rng.sample(range(7), 2))
        got = solve_exact(inst, SolveBudget(forbidden=forbidden))
        want = naive_min_solution(inst, forbidden)
        assert got == want
        if got is not None:
            assert not (got & forbidden)

    @pytest.mark.parametrize("seed", range(10))
    def test_budget_absence_is_sound(self, seed):
        rng = random.Random(50 + seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, 3000 + seed)
        opt = naive_opt(inst)
        if opt == 0:
            return
        assert solve_exact(inst, SolveBudget(max_k=opt - 1)) is None
        found = solve_exact(inst, SolveBudget(max_k=opt))
        assert found is not None and len(found) == opt

    @pytest.mark.parametrize("seed", range(8))
    def test_forbidden_monotonicity(self, seed):
        rng = random.Random(80 + seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, 4000 + seed)
        small = frozenset(rng.sample(range(7), 1))
        large = small | frozenset(rng.sample(range(7), 2))
        v_small = opt_value(inst, forbidden=small)
        v_large = opt_value(inst, forbidden=large)
        if v_large is not None:
            assert v_small is not None and v_small <= v_large


class TestBadBudgets:
    INST = Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_k": 1.5},
            {"max_k": True},
            {"max_k": "2"},
            {"forbidden": frozenset({1.0})},
            {"forbidden": frozenset({True})},
            {"forbidden": {"a"}},
            {"forbidden": [0, None]},
            {"forbidden": 5},
            {"node_cap": 2.0},
            {"node_cap": False},
            {"node_cap": -1},
        ],
    )
    def test_wrong_types_refused_at_construction(self, kwargs):
        with pytest.raises(InputError):
            SolveBudget(**kwargs)

    @pytest.mark.parametrize(
        "budget",
        [
            SolveBudget(max_k=-1),
            SolveBudget(max_k=4),
            SolveBudget(forbidden=frozenset({3})),
            SolveBudget(forbidden=frozenset({-1})),
        ],
    )
    def test_out_of_range_refused_by_the_solve(self, budget):
        with pytest.raises(InputError):
            solve_exact(self.INST, budget)

    @pytest.mark.parametrize(
        "forbidden", [frozenset({99}), frozenset({-1}), frozenset({"x"}), [True]]
    )
    def test_opt_value_avoiding_refuses_bad_vertices(self, forbidden):
        with pytest.raises(InputError):
            opt_value(self.INST, forbidden=forbidden)

    @pytest.mark.parametrize("node_cap", ["5", 1.0, True])
    def test_opt_value_refuses_a_non_int_node_cap(self, node_cap):
        with pytest.raises(InputError):
            opt_value(self.INST, node_cap)

    def test_forbidden_taken_from_any_iterable(self):
        budget = SolveBudget(forbidden=[0, 2, 0])
        assert budget.forbidden == frozenset({0, 2})
        assert solve_exact(self.INST, budget) == frozenset({1})
        assert solve_exact(self.INST, SolveBudget(forbidden=iter([0, 1]))) == frozenset({2})
        assert opt_value(self.INST, forbidden=[0, 1, 2]) is None


@st.composite
def bench_path_instances(draw):
    """A DFVS or multicut instance at benchmark sizes (n 26-45, mean degree
    about that of the benchmark's), a forbidden set and a size budget that
    is None, the optimum or one below it."""
    problem = draw(st.sampled_from(PATH_FAMILIES))
    n = draw(st.integers(26, 45))
    seed = draw(st.integers(0, 10**6))
    degree = draw(st.sampled_from([2.0, 2.4, 2.8]))
    g = random_graph(n, seed, problem.directed, degree / (n - 1))
    terminals = ()
    if problem.uses_terminals:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        terminals = tuple(random.Random(seed).sample(pairs, draw(st.integers(4, 8))))
    forbidden = draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    slack = draw(st.sampled_from([None, 0, 1]))
    return Instance(problem, g, terminals), forbidden, slack


class TestLexOrderAtBenchSizes:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(bench_path_instances())
    def test_matches_the_per_vertex_pass(self, case):
        # subset enumeration stops at n = 12; the reference rebuilds the
        # per-vertex pass from restricted instances and the minimum pass
        inst, forbidden, slack = case
        want = lex_least_by_restriction(inst, forbidden)
        assert solve_exact(inst, SolveBudget(forbidden=forbidden)) == want
        if want is None or slack is None or len(want) < slack:
            return
        max_k = len(want) - slack
        got = solve_exact(inst, SolveBudget(max_k=max_k, forbidden=forbidden))
        assert got == (want if slack == 0 else None)
        if slack:
            assert lex_least_by_restriction(inst, forbidden, max_k) is None


def solve_counting_nodes(inst, forbidden):
    """solve_exact's answer and the nodes of every search it ran."""
    searches = []
    init = _Search.__init__

    def recorded(search, *args):
        init(search, *args)
        searches.append(search)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Search, "__init__", recorded)
        got = solve_exact(inst, SolveBudget(forbidden=forbidden))
    return got, sum(s.nodes for s in searches)


class TestObstacleMemo:
    """The memo of path and cycle searches changes no answer of a solve."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(bench_path_instances())
    def test_every_served_answer_is_the_search_answer(self, case):
        inst, forbidden, slack = case
        cheapest = _Search._cheapest

        def checked(search, removed, blocked, below):
            hits = search.memo_hits
            got = cheapest(search, removed, blocked, below)
            if search.memo_hits > hits:
                cost = [0 if u in blocked else 1 for u in range(search.g.n)]
                assert got == cheapest_obstacle(search.inst, cost, removed, below)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Search, "_cheapest", checked)
            got = solve_exact(inst, SolveBudget(forbidden=forbidden))
            if got is not None and slack is not None and len(got) >= slack:
                solve_exact(inst, SolveBudget(max_k=len(got) - slack, forbidden=forbidden))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(bench_path_instances())
    def test_forced_clears_keep_solutions_and_nodes(self, case):
        inst, forbidden, _ = case
        want = solve_counting_nodes(inst, forbidden)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_MEMO_CAP", 1)
            assert solve_counting_nodes(inst, forbidden) == want

    def test_a_refuted_range_is_mostly_served(self):
        # the lexicographic pass re-walks the minimum pass's tree: refuting
        # the range below the least vertex of {6, 8, 9} runs one search
        inst = random_instance(Problem.DIRECTED_VERTEX_MULTICUT, 14, 0)
        search = _Search(inst, frozenset(), 10**6)
        base = search.minimum(None)
        assert sorted(base) == [6, 8, 9]
        searches, hits = search.searches, search.memo_hits
        assert not search.completable(set(), set(), frozenset(range(6)), len(base))
        assert (search.searches - searches, search.memo_hits - hits) == (1, 20)

    def test_optimized_mode_matches_in_process(self, caplog):
        # `python -O` strips assert statements: a directed multicut whose
        # second pass refutes ranges and whose memo serves answers solves
        # to the same set with the same counts there
        inst = random_instance(Problem.DIRECTED_VERTEX_MULTICUT, 14, 0)
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            got = solve_exact(inst)
        counts = debug_counts(caplog)
        assert counts["refuted"] >= 1 and counts["memo_hits"] > 0
        src = Path(essentia.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_SOLVE],
            input=serialize.dumps_instance(inst),
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        want = {"debug": False, "solution": sorted(got), "counts": list(counts.values())}
        assert json.loads(proc.stdout) == want


OPTIMIZED_SOLVE = """
import json, logging, sys
from essentia import serialize
from essentia.exact import solve_exact
records = []
handler = logging.Handler()
handler.emit = records.append
log = logging.getLogger("essentia.exact")
log.addHandler(handler)
log.setLevel(logging.DEBUG)
got = solve_exact(serialize.loads_instance(sys.stdin.read()))
[record] = records
print(json.dumps({"debug": __debug__, "solution": sorted(got), "counts": list(record.args)}))
"""


def bench_multicut(problem, seed):
    """A multicut instance shaped like the benchmark's solve-exact ones:
    n = 40 with 7 pairs, or, directed, n = 45 with 8 pairs."""
    n, p, k = (45, 0.06, 8) if problem.directed else (40, 0.07, 7)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    terminals = tuple(random.Random(seed).sample(pairs, k))
    return Instance(problem, random_graph(n, seed, problem.directed, p), terminals)


class TestSteeredSearches:
    """Steering the multicut searches with potentials changes no answer."""

    @pytest.mark.parametrize("problem", [Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT])
    def test_every_question_gets_the_unsteered_answer(self, problem):
        cheapest = _Search._cheapest
        built = 0

        def checked(search, removed, blocked, below):
            got = cheapest(search, removed, blocked, below)
            cost = [0 if u in blocked else 1 for u in range(search.g.n)]
            assert got == cheapest_obstacle(search.inst, cost, removed, below)
            return got

        for seed in range(12):
            inst = bench_multicut(problem, seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_Search, "_cheapest", checked)
                want = solve_counting_nodes(inst, frozenset())
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_Search, "_potentials", lambda *args: None)
                assert solve_counting_nodes(inst, frozenset()) == want
            search = _Search(inst, frozenset(), 10**6)
            search.minimum(None)
            built += search.potentials_built
        assert built > 0


class TestCaps:
    def test_node_cap_raises(self):
        inst = random_instance(Problem.VERTEX_MULTICUT, 8, 5)
        if opt_value(inst) < 2:
            inst = gen_star_multicut(8).instance
        with pytest.raises(NodeCapError):
            solve_exact(inst, SolveBudget(forbidden=frozenset({0}), node_cap=1))

    def test_determinism_across_runs(self):
        inst = random_instance(Problem.COGRAPH_DELETION, 9, 77)
        assert solve_exact(inst) == solve_exact(inst)


@st.composite
def search_nodes(draw):
    """A search over a random instance of any problem, plus the removed and
    blocked sets of one node."""
    problem = draw(st.sampled_from(list(Problem)))
    n = draw(st.integers(6, 9))
    inst = random_instance(problem, n, draw(st.integers(0, 10**6)))
    removed = draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    blocked = draw(st.frozensets(st.integers(0, n - 1), max_size=n // 2))
    return _Search(inst, frozenset(), 10**6), removed, blocked


@st.composite
def bench_path_nodes(draw):
    """A search over a DFVS or multicut instance at benchmark sizes (n 12-26,
    about as sparse as the benchmark's), plus a node's non-empty removed and
    blocked sets."""
    problem = draw(st.sampled_from(PATH_FAMILIES))
    n = draw(st.integers(12, 26))
    seed = draw(st.integers(0, 10**6))
    g = random_graph(n, seed, problem.directed, draw(st.sampled_from([0.08, 0.12, 0.2])))
    terminals = ()
    if problem.uses_terminals:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        terminals = tuple(random.Random(seed).sample(pairs, draw(st.integers(2, 8))))
    inst = Instance(problem, g, terminals)
    removed = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4))
    blocked = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n // 2))
    return _Search(inst, frozenset(), 10**6), removed, blocked


class TestNodeStateMatchesScan:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(search_nodes(), st.integers(1, 4))
    def test_branch_obstacle_and_packing(self, node, need):
        self.check(*node, need)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(bench_path_nodes(), st.integers(1, 4))
    def test_path_families_at_bench_sizes(self, node, need):
        self.check(*node, need)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(bench_path_nodes(), st.data())
    def test_path_families_offer_an_unhit_target(self, node, data):
        # the second pass's range is one more obstacle: it is the branch
        # obstacle while unhit unless some path has at most as many
        # deletable vertices
        search, removed, blocked = node
        n = search.g.n
        target = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n // 2))
        path = scan_violated(search, removed, blocked)
        search.target = target
        got = search._violated(removed, blocked, None)
        deletable = sorted(target - blocked)
        if target.isdisjoint(removed) and (path is None or len(deletable) < len(path[0])):
            assert got == (deletable, target)
        else:
            assert got == path

    @staticmethod
    def check(search, removed, blocked, need):
        alive = None
        if search.obstacles is not None:
            alive = [ob for ob in search.obstacles if not ob[1] & removed]
        got = search._violated(removed, blocked, alive)
        assert got == scan_violated(search, removed, blocked)
        if got is None or not got[0]:
            return
        # the packing starts from the branch obstacle the node just found
        assert search._packing_lb(removed, blocked, need, alive, got[1]) == scan_packing_lb(
            search, removed, blocked, need, _INFEASIBLE
        )


class TestVertexCoverLpBound:
    """The enumerated packing on vertex cover, raised to ceil(ν/2)."""

    @staticmethod
    def bound(g, blocked):
        search = _Search(Instance(Problem.VERTEX_COVER, g), frozenset(), 10**6)
        alive = search.obstacles
        return search._packing_lb(frozenset(), blocked, g.n + 1, alive, alive[0][1])

    def test_odd_cycle_takes_the_matching_bound(self):
        # greedy packs two disjoint edges of C5; its LP value is 5/2
        c5 = Graph(5, False, [(i, (i + 1) % 5) for i in range(5)])
        assert self.bound(c5, frozenset()) == 3

    def test_star_with_blocked_centre_keeps_the_greedy_count(self):
        # each leaf's edge packs on its own, while ceil(ν/2) is 1
        star = Graph(4, False, [(0, 1), (0, 2), (0, 3)])
        assert self.bound(star, frozenset({0})) == 3


class TestLogging:
    def test_debug_record_reports_both_passes(self, caplog):
        inst = random_instance(Problem.VERTEX_COVER, 12, 6012)
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            got = solve_exact(inst)
        counts = debug_counts(caplog)
        search = _Search(inst, frozenset(), 10**6)
        search.minimum(None)
        assert counts["minimum_nodes"] == search.nodes
        # the second pass refutes at most one range per vertex it keeps
        assert counts["refuted"] <= len(got)
        assert (counts["minimum_nodes"], counts["lex_nodes"], counts["refuted"]) == (1, 4, 2)
        # vertex cover scans its edges and runs no path search
        path_counts = ("searches", "memo_hits", "lowered", "built")
        assert [counts[name] for name in path_counts] == [0, 0, 0, 0]

    def test_no_solution_logs_an_empty_second_pass(self, caplog):
        inst = gen_star_multicut(5).instance
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            assert solve_exact(inst, SolveBudget(max_k=0)) is None
        counts = debug_counts(caplog)
        assert (counts["lex_nodes"], counts["refuted"]) == (0, 0)

    def test_searches_and_memo_answers_count_every_query(self, caplog, monkeypatch):
        inst = random_instance(Problem.DIRECTED_VERTEX_MULTICUT, 14, 0)
        calls = []
        search = exact.cheapest_obstacle
        monkeypatch.setattr(exact, "cheapest_obstacle", lambda *a, **k: calls.append(a) or search(*a, **k))
        queries = []
        cheapest = _Search._cheapest
        monkeypatch.setattr(_Search, "_cheapest", lambda s, *a: queries.append(a) or cheapest(s, *a))
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            solve_exact(inst)
        counts = debug_counts(caplog)
        searches, memo_hits = counts["searches"], counts["memo_hits"]
        assert searches == len(calls) and searches + memo_hits == len(queries)
        assert memo_hits > 0

    @pytest.mark.parametrize(
        "inst, steered",
        [
            (bench_multicut(Problem.DIRECTED_VERTEX_MULTICUT, 10), True),
            (bench_multicut(Problem.VERTEX_MULTICUT, 0), True),
            (random_instance(Problem.DFVS, 10, 3), False),
            (random_instance(Problem.COGRAPH_DELETION, 12, 1), False),
        ],
        ids=["directed-multicut", "multicut", "dfvs", "cograph"],
    )
    def test_long_multicut_solves_build_potentials(self, caplog, inst, steered):
        # the cycle and listed families are never steered
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            solve_exact(inst)
        counts = debug_counts(caplog)
        potentials = counts["lowered"] + counts["built"]
        if steered:
            assert counts["searches"] > inst.n and potentials > 0
        else:
            assert potentials == 0

    def test_multicut_steers_from_its_first_search(self, caplog):
        # 2 searches on 6 vertices, both steered: the first builds one
        # vector per source (1-4) under the empty blocked set, the second reuses them
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            assert solve_exact(gen_star_multicut(5).instance) == frozenset({0})
        counts = debug_counts(caplog)
        steering = ("searches", "memo_hits", "lowered", "built")
        assert [counts[name] for name in steering] == [2, 1, 0, 4]

    @pytest.mark.parametrize(
        "inst, counts",
        [(bench_multicut(Problem.DIRECTED_VERTEX_MULTICUT, 10), (1227, 174, 0))],
        ids=["directed-multicut"],
    )
    def test_nodes_start_from_their_ancestors_state(self, caplog, inst, counts):
        # potential vectors lowered from an earlier blocked set inside the
        # new one, and built cold; a multicut finds no matching
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            solve_exact(inst)
        got = debug_counts(caplog)
        assert (got["lowered"], got["built"], got["matchings"]) == counts

    def test_only_the_first_matching_of_a_solve_starts_cold(self, caplog, monkeypatch):
        # every vertex-cover matching after the solve's first starts from
        # the last one, in the lexicographic pass too
        starts = []
        mates = exact._double_cover_mates
        monkeypatch.setattr(
            exact, "_double_cover_mates", lambda g, r, start: starts.append(start) or mates(g, r, start)
        )
        completable = _Search.completable
        first_lex = []
        monkeypatch.setattr(
            _Search, "completable", lambda s, *a: first_lex.append(len(starts)) or completable(s, *a)
        )
        with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
            solve_exact(random_instance(Problem.VERTEX_COVER, 24, 2))
        assert debug_counts(caplog)["matchings"] == len(starts) == 42
        assert starts[0] is None and None not in starts[1:]
        # both passes find matchings
        assert 0 < first_lex[0] < len(starts)

    def test_silent_above_debug(self, caplog):
        inst = random_instance(Problem.VERTEX_COVER, 12, 6012)
        with caplog.at_level(logging.INFO, logger="essentia.exact"):
            solve_exact(inst)
        assert not [r for r in caplog.records if r.name == "essentia.exact"]
