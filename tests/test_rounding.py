import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import essentia
from essentia import serialize
from essentia.errors import InputError, PreconditionError
from essentia.exact import SolveBudget, opt_value, solve_exact
from essentia.graphs import Graph, check_weights
from essentia.lab import gen_matching_apex, gen_star_multicut
from essentia.lp import FractionalSolution, solve
from essentia.problems import Instance, Problem, is_solution
from essentia.rounding import _heavy_set, round_cograph, round_directed_multicut, round_multicut

from conftest import random_graph, random_singleton_instance
from oracles import cheapest_paths, naive_min_separator_size

HALF = F(1, 2)


def pinned_optimum(inst, v):
    return solve(inst, v)


def directed_star(p, q):
    """Sources 1..p into centre 0, which feeds sinks p+1..p+q; every source-sink pair."""
    arcs = [(i, 0) for i in range(1, p + 1)]
    arcs += [(0, p + j) for j in range(1, q + 1)]
    pairs = tuple((i, p + j) for i in range(1, p + 1) for j in range(1, q + 1))
    return Instance(Problem.DIRECTED_VERTEX_MULTICUT, Graph(p + q + 1, True, arcs), pairs)


class TestCertificateInvariants:
    # raised explicitly, so the checks also hold under `python -O`
    @pytest.mark.parametrize(
        "integral_set, match",
        [([0], "pinned vertex"), ([1, 2, 3, 4, 5, 6, 7], "factor bound")],
    )
    def test_rebuilt_certificate_violation_is_input_error(self, integral_set, match):
        inst = gen_star_multicut(6).instance
        cert = round_multicut(inst, 0, pinned_optimum(inst, 0))
        with pytest.raises(InputError, match=match):
            replace(cert, integral_set=frozenset(integral_set))


class TestVertexIds:
    # v is checked with the oracle's pin rule, so the rounders and `lp.solve`
    # refuse the same vertex ids with the same error
    def test_float_vertex_is_input_error(self):
        inst = gen_star_multicut(4).instance
        with pytest.raises(InputError, match=r"^pinned vertex must be an int, got 1\.5$"):
            round_multicut(inst, 1.5, pinned_optimum(inst, 0))

    def test_bool_vertex_is_input_error(self):
        inst = gen_star_multicut(4).instance
        with pytest.raises(InputError, match=r"^pinned vertex must be an int, got True$"):
            round_multicut(inst, True, pinned_optimum(inst, 0))

    @pytest.mark.parametrize("v", [-1, 5])
    def test_out_of_range_vertex_is_input_error(self, v):
        x = FractionalSolution((F(0),) * 5, F(0))
        directed = Instance(
            Problem.DIRECTED_VERTEX_MULTICUT, Graph(5, True, [(1, 0), (0, 2)]), ((1, 2),)
        )
        path = Instance(Problem.COGRAPH_DELETION, Graph(5, False, [(0, 1), (1, 2), (2, 3)]))
        for call in (
            lambda: round_multicut(gen_star_multicut(4).instance, v, x),
            lambda: round_directed_multicut(directed, v, x),
            lambda: round_cograph(path, v, x),
        ):
            with pytest.raises(InputError, match=rf"^pinned vertex {v} out of range \(n=5\)$"):
                call()


class TestHeavySet:
    """`_heavy_set` against the reference search's distances from (to) v.

    Every weight is a multiple of 1/12, so many paths weigh exactly 1/2:
    that is the boundary between heavy and light.
    """

    WEIGHTS = (F(0), F(1, 12), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    def test_matches_reference_distances(self, directed):
        tight = 0
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            g = random_graph(n, seed, directed=directed)
            v = rng.randrange(n)
            w = [F(0) if u == v else rng.choice(self.WEIGHTS) for u in range(n)]
            den, nums = check_weights(g, w)
            # D (graphs) or T (digraphs) from g; S from the reversed digraph
            sides = [(g, False)]
            if directed:
                sides.append((Graph(n, True, [(b, a) for a, b in g.edges]), True))
            for searched, to_v in sides:
                dist = {path[-1]: d for d, path in cheapest_paths(searched, w, (v,))}
                want = {u for u in range(n) if u != v and (u not in dist or dist[u] >= HALF)}
                assert _heavy_set(g, den, nums, v, to_v) == want, (seed, to_v)
                tight += sum(d == HALF for d in dist.values())
        # the sweep reaches the boundary, where a strict and a weak
        # comparison disagree
        assert tight >= 50


class TestRoundMulticut:
    def test_star_certificate_is_tight(self):
        inst = gen_star_multicut(6).instance
        x = pinned_optimum(inst, 0)
        cert = round_multicut(inst, 0, x)
        assert set(cert.witness_sets["D"]) == set(range(1, 7))
        assert len(cert.integral_set) == 6 == 2 * x.value
        assert is_solution(inst, cert.integral_set)
        # no smaller center-to-D separator exists
        assert naive_min_separator_size(inst.graph, {0}, set(range(1, 7)), frozenset({0})) == 6

    def test_integral_input_stays_integral(self):
        # chain a-u-v-b with the only a..b route through u and v
        g = Graph(4, False, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(Problem.VERTEX_MULTICUT, g, ((0, 3),))
        x = FractionalSolution((F(0), F(1), F(0), F(0)), F(1))
        cert = round_multicut(inst, 2, x)
        assert cert.integral_set == frozenset({1})

    @pytest.mark.parametrize("seed", range(40))
    def test_random_singleton_instances(self, seed):
        inst, v = random_singleton_instance(Problem.VERTEX_MULTICUT, 8, seed)
        x = pinned_optimum(inst, v)
        cert = round_multicut(inst, v, x)
        assert v not in cert.integral_set
        assert len(cert.integral_set) <= 2 * x.value
        assert is_solution(inst, cert.integral_set)
        # every terminal pair leaves an endpoint in D
        d = set(cert.witness_sets["D"])
        for s, t in inst.terminals:
            assert s in d or t in d

    def test_rejects_non_singleton_vertex(self):
        inst = gen_star_multicut(4).instance
        x = pinned_optimum(inst, 0)
        with pytest.raises(PreconditionError):
            round_multicut(inst, 1, FractionalSolution((F(0),) * 5, F(0)))
        with pytest.raises(PreconditionError):  # infeasible x
            round_multicut(inst, 0, FractionalSolution((F(0),) * 5, F(0)))
        assert round_multicut(inst, 0, x)  # the honest call is fine

    def test_rejects_wrong_problem(self):
        inst = gen_matching_apex(3).instance
        with pytest.raises(PreconditionError):
            round_multicut(inst, 0, FractionalSolution((F(0),) * 7, F(0)))


class TestRoundDirectedMulticut:
    def test_directed_star_within_factor(self):
        inst = directed_star(3, 3)
        x = pinned_optimum(inst, 0)
        cert = round_directed_multicut(inst, 0, x)
        assert len(cert.integral_set) <= 4 * x.value
        assert is_solution(inst, cert.integral_set)

    def test_integral_input_cuts_exactly(self):
        # a -> u -> v -> w -> b, pair (a, b)
        g = Graph(5, True, [(0, 1), (1, 2), (2, 3), (3, 4)])
        inst = Instance(Problem.DIRECTED_VERTEX_MULTICUT, g, ((0, 4),))
        x = FractionalSolution((F(0), F(1), F(0), F(1), F(0)), F(2))
        cert = round_directed_multicut(inst, 2, x)
        assert is_solution(inst, cert.integral_set)
        assert len(cert.integral_set) <= 8

    @pytest.mark.parametrize("seed", range(40))
    def test_random_singleton_instances(self, seed):
        inst, v = random_singleton_instance(Problem.DIRECTED_VERTEX_MULTICUT, 7, seed)
        x = pinned_optimum(inst, v)
        cert = round_directed_multicut(inst, v, x)
        assert v not in cert.integral_set
        assert len(cert.integral_set) <= 4 * x.value
        assert is_solution(inst, cert.integral_set)
        s_set, t_set = set(cert.witness_sets["S"]), set(cert.witness_sets["T"])
        for s, t in inst.terminals:
            assert s in s_set or t in t_set


class TestRoundCograph:
    def test_matching_apex_four_edges(self):
        labeled = gen_matching_apex(4)
        inst = labeled.instance
        x = pinned_optimum(inst, 0)
        cert = round_cograph(inst, 0, x)
        assert x.value == F(2)
        assert len(cert.integral_set) <= F(5, 2) * x.value
        assert is_solution(inst, cert.integral_set)
        # integral optimum avoiding the apex is m - 1 = 3
        assert opt_value(inst, forbidden={0}) == 3

    def test_integral_solution_passes_through(self):
        inst = gen_matching_apex(3).instance
        sol = solve_exact(inst, SolveBudget(forbidden=frozenset({0})))
        weights = tuple(F(1) if u in sol else F(0) for u in range(inst.n))
        x = FractionalSolution(weights, F(len(sol)))
        cert = round_cograph(inst, 0, x)
        assert cert.integral_set == sol
        assert cert.witness_sets["picked"] == ()

    def test_cograph_input_yields_empty_set(self):
        inst = Instance(Problem.COGRAPH_DELETION, Graph(4, False, [(0, 1), (2, 3)]))
        cert = round_cograph(inst, 0, FractionalSolution((F(0),) * 4, F(0)))
        assert cert.integral_set == frozenset()

    def test_light_feasible_solution_exercises_the_split(self):
        # all weights 1/3 < 2/5: the split of the P4-covered vertices decides
        labeled = gen_matching_apex(5)
        n = labeled.instance.n
        w = [F(0)] + [F(1, 3)] * (n - 1)
        x = FractionalSolution(tuple(w), F(10, 3))
        cert = round_cograph(labeled.instance, 0, x)
        assert cert.witness_sets["heavy_rounds"] == ()
        assert set(cert.witness_sets["V_star"]) == set(range(1, 11))
        # ties break toward the non-neighbors of the pinned vertex
        assert cert.integral_set == frozenset(labeled.labels["far"])
        assert len(cert.integral_set) <= F(5, 2) * x.value
        assert is_solution(labeled.instance, cert.integral_set)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_singleton_instances(self, seed):
        inst, v = random_singleton_instance(Problem.COGRAPH_DELETION, 8, seed)
        x = pinned_optimum(inst, v)
        cert = round_cograph(inst, v, x)
        assert v not in cert.integral_set
        assert len(cert.integral_set) <= F(5, 2) * x.value
        assert is_solution(inst, cert.integral_set)

    def test_rejects_residual_p4(self):
        g = Graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4)])  # P5: no singleton fix
        with pytest.raises(PreconditionError):
            round_cograph(
                Instance(Problem.COGRAPH_DELETION, g), 0, FractionalSolution((F(0),) * 5, F(0))
            )

    def test_rejects_another_problem(self):
        # {0} covers every edge of the star, so only the problem is wrong
        inst = Instance(Problem.VERTEX_COVER, Graph(4, False, [(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(
            PreconditionError, match=r"^expected a cograph-deletion instance, got vertex-cover$"
        ):
            round_cograph(inst, 0, FractionalSolution((F(0),) * 4, F(0)))


class TestWeightsValidatedOnce:
    @pytest.mark.parametrize(
        "problem, rounder",
        [
            (Problem.VERTEX_MULTICUT, round_multicut),
            (Problem.DIRECTED_VERTEX_MULTICUT, round_directed_multicut),
            (Problem.COGRAPH_DELETION, round_cograph),
        ],
        ids=["multicut", "directed-multicut", "cograph"],
    )
    def test_one_check_weights_call_per_rounding(self, monkeypatch, problem, rounder):
        # the feasibility check and the heavy sets share one conversion
        calls = []

        def counted(g, w):
            calls.append(w)
            return check_weights(g, w)

        for module in (essentia.rounding, essentia.problems):
            monkeypatch.setattr(module, "check_weights", counted)
        for seed in range(8):
            inst, v = random_singleton_instance(problem, 7, seed)
            x = solve(inst, v)
            calls.clear()
            rounder(inst, v, x)
            assert calls == [x.weights]


# reads an instance file and a pinned vertex, prints the multicut rounding's certificate
OPTIMIZED_ROUNDING = """
import json, sys
from essentia import serialize
from essentia.lp import solve
from essentia.rounding import round_directed_multicut, round_multicut
inst = serialize.loads_instance(sys.stdin.read())
v = int(sys.argv[1])
rounder = round_multicut if inst.problem.value == "vertex-multicut" else round_directed_multicut
cert = rounder(inst, v, solve(inst, v))
print(json.dumps({"debug": __debug__, "cert": serialize.rounding_certificate_to_dict(cert)}))
"""


class TestOptimizedMode:
    @pytest.mark.parametrize(
        "case", ["star", "directed-star", "random", "random-directed"]
    )
    def test_roundings_match_in_process(self, case):
        # `python -O` strips assert statements; the separator's cut-equals-flow
        # check is raised, so the roundings run it and cut the same sets there
        if case == "star":
            inst, v = gen_star_multicut(5).instance, 0
        elif case == "directed-star":
            inst, v = directed_star(3, 4), 0
        else:
            # seeds whose cuts have two vertices (on both sides, directed)
            if case == "random":
                inst, v = random_singleton_instance(Problem.VERTEX_MULTICUT, 9, 11)
            else:
                inst, v = random_singleton_instance(Problem.DIRECTED_VERTEX_MULTICUT, 9, 10)
        rounder = round_multicut if case in ("star", "random") else round_directed_multicut
        want = serialize.rounding_certificate_to_dict(rounder(inst, v, pinned_optimum(inst, v)))
        assert len(want["integral_set"]) >= 2
        src = Path(essentia.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_ROUNDING, str(v)],
            input=serialize.dumps_instance(inst),
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"debug": False, "cert": want}
