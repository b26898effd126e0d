import logging
import random
import re
from fractions import Fraction as F

import pytest

from essentia.detection import DETECTION_THRESHOLDS, essential_vertices_exact, lp_values
from essentia.driver import restrict_instance, solve_with_detection
from essentia.errors import InputError
from essentia.exact import opt_value
from essentia.graphs import Graph
from essentia.lab import gen_dfvs_gadget, gen_matching_apex, gen_star_multicut, gen_vc_gadget
from essentia.problems import Instance, Problem, is_solution

from conftest import random_instance
from oracles import dovetail_reduce, naive_opt


class TestRestrictInstance:
    def test_indices_remap_and_terminals_drop(self):
        inst = gen_star_multicut(4).instance
        sub, back = restrict_instance(inst, frozenset({2}))
        assert sub.n == 4 and back == [0, 1, 3, 4]
        assert all(2 not in (back[s], back[t]) for s, t in sub.terminals)

    def test_forcing_a_solution_leaves_no_obstacles(self):
        inst = gen_star_multicut(5).instance
        sub, _ = restrict_instance(inst, frozenset({0}))
        assert naive_opt(sub) == 0

    @pytest.mark.parametrize(
        "removed, match",
        [
            ({True}, r"^removed vertex must be an int, got True$"),
            ({99}, r"^removed vertex 99 out of range \(n=4\)$"),
            ({"a"}, r"^removed vertex must be an int, got 'a'$"),
        ],
    )
    def test_removed_vertices_are_checked(self, removed, match):
        with pytest.raises(InputError, match=match):
            restrict_instance(gen_star_multicut(3).instance, removed)


class TestSolveWithDetection:
    def test_obstacle_free_succeeds_immediately(self):
        inst = Instance(Problem.COGRAPH_DELETION, Graph(5, False, [(0, 1)]))
        rep = solve_with_detection(inst)
        assert rep.solution == frozenset() and rep.opt == 0
        assert rep.iterations == ((0, 0, "solved"),)

    @pytest.mark.parametrize("node_cap", [-1, 2.0, True])
    def test_bad_node_cap_refused_before_any_lp(self, monkeypatch, node_cap):
        def no_lp(*args, **kwargs):
            raise AssertionError("lp_values ran before the node cap was checked")

        monkeypatch.setattr("essentia.driver.lp_values", no_lp)
        with pytest.raises(InputError, match=r"^node_cap must be a nonnegative int, got "):
            solve_with_detection(gen_star_multicut(4).instance, node_cap=node_cap)

    def test_star_trace_detects_the_center(self):
        rep = solve_with_detection(gen_star_multicut(6).instance)
        assert rep.solution == frozenset({0})
        assert rep.detected == frozenset({0})
        assert rep.residual_budget == 0
        assert rep.iterations[-1] == (1, 1, "solved")

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(6))
    def test_returns_exact_optimum(self, problem, seed):
        inst = random_instance(problem, 7, 90 + seed)
        rep = solve_with_detection(inst)
        assert is_solution(inst, rep.solution)
        assert rep.opt == len(rep.solution) == opt_value(inst)
        assert rep.detected <= rep.solution

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_budget_bounded_by_non_essential_count(self, seed):
        rng = random.Random(seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, 170 + seed)
        rep = solve_with_detection(inst)
        essential = essential_vertices_exact(inst, DETECTION_THRESHOLDS[problem])
        assert rep.residual_budget <= rep.opt - len(essential)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_succeeds_below_the_optimum(self, seed):
        rng = random.Random(1000 + seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, 260 + seed)
        rep = solve_with_detection(inst)
        opt = rep.opt
        for k, _, outcome in rep.iterations:
            if outcome == "solved":
                assert k >= opt

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(3))
    def test_selection_is_lp_value_above_k(self, problem, seed):
        # the sweep selects exactly the vertices whose f_v exceeds the guess k
        inst = random_instance(problem, 7, 330 + seed)
        values = lp_values(inst)
        rep = solve_with_detection(inst)
        for k, selected, _ in rep.iterations:
            assert selected == sum(1 for f in values if f > k)
        k = rep.iterations[-1][0]
        assert rep.detected == frozenset(v for v, f in enumerate(values) if f > k)


def _sweep_corpus():
    out = [
        random_instance(problem, 7, 500 + seed)
        for problem in Problem
        for seed in range(4)
    ]
    # instances on which detection fires, so S(k) is nonempty for small k
    out += [gen_star_multicut(5).instance, gen_matching_apex(3).instance]
    for seed in range(2):
        dfvs = random_instance(Problem.DFVS, 4, 600 + seed)
        out.append(gen_dfvs_gadget(dfvs, F(1)).instance)
        cover = random_instance(Problem.VERTEX_COVER, 4, 600 + seed)
        out.append(gen_vc_gadget(cover, F(1, 2)).instance)
    # here the sweep makes 4 exact calls and the dovetail 10, repeating 3 of them
    cover = random_instance(Problem.VERTEX_COVER, 5, 605)
    out.append(gen_vc_gadget(cover, F(1, 4)).instance)
    return out


@pytest.mark.parametrize("inst", _sweep_corpus())
def test_sweep_matches_dovetail_reference(inst):
    rep = solve_with_detection(inst)
    solution, detected, residual_budget, tried = dovetail_reduce(inst)
    assert (rep.solution, rep.detected, rep.residual_budget) == (
        solution,
        detected,
        residual_budget,
    )
    ks = [k for k, _, _ in rep.iterations]
    assert len(ks) <= inst.n + 1
    assert ks == list(range(len(ks)))  # each k once, ascending from 0
    # the sweep calls the exact solver once for each distinct k the dovetail tries
    swept = [k for k, _, outcome in rep.iterations if outcome != "detected-exceeds-k"]
    assert swept == sorted(set(tried))


def test_deep_vertex_cover_residual_keeps_a_small_search(caplog):
    # the last corpus instance ends at residual budget 24; branching on leaves
    # of the remaining graph once took its exact calls to 186,623 minimum-pass
    # and 74,645 lexicographic-pass nodes, and the search that took the
    # degree-one vertex's neighbour at most 892 and 868
    cover = random_instance(Problem.VERTEX_COVER, 5, 605)
    inst = gen_vc_gadget(cover, F(1, 4)).instance
    with caplog.at_level(logging.DEBUG, logger="essentia.exact"):
        rep = solve_with_detection(inst)
    assert (rep.opt, rep.residual_budget) == (39, 24)
    pattern = re.compile(r"^solve_exact: (\d+) minimum-pass nodes, (\d+) lexicographic-pass nodes")
    counts = [
        tuple(map(int, pattern.match(r.getMessage()).groups()))
        for r in caplog.records
        if r.name == "essentia.exact"
    ]
    assert len(counts) == 4
    assert max(m for m, _ in counts) <= 892
    assert max(lex for _, lex in counts) <= 868
