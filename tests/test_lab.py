import csv
import io
import itertools
import random
import re
from fractions import Fraction as F

import pytest

from essentia.errors import InputError, SizeCapError
from essentia.exact import SolveBudget, opt_value, solve_exact
from essentia.lab import (
    _pad_multiplier,
    convert,
    gap_csv_rows,
    gen_dfvs_gadget,
    gen_gnp,
    gen_matching_apex,
    gen_star_multicut,
    gen_vc_gadget,
    measure_gap,
)
from essentia.graphs import MAX_VERTICES, Graph
from essentia.lp import FractionalSolution, solve, verify_feasible
from essentia.problems import Instance, Problem, is_solution

from conftest import gnp_gap_experiment, random_instance
from oracles import induces_p4, naive_is_solution, naive_opt


def triangle_dfvs():
    return Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))


class TestTightFamilies:
    def test_star_m2_is_a_three_vertex_path(self):
        labeled = gen_star_multicut(2)
        assert labeled.instance.n == 3
        assert labeled.instance.terminals == ((1, 2),)

    def test_star_reference_values(self):
        inst = gen_star_multicut(6).instance
        assert solve(inst, 0).value == F(3)
        report = measure_gap(inst, pinned=0)
        assert report.integral == inst.n - 2 == 5  # all leaves but one

    def test_matching_apex_reference_values(self):
        labeled = gen_matching_apex(8)
        inst = labeled.instance
        assert opt_value(inst) == 1
        assert solve(inst, 0).value == F(4)
        assert measure_gap(inst, pinned=0).integral == 7

    @pytest.mark.parametrize("m", range(2, 13))
    def test_both_families_hit_the_exact_ratio(self, m):
        for gen in (gen_star_multicut, gen_matching_apex):
            report = measure_gap(gen(m).instance, pinned=0)
            assert report.ratio == F(2 * (m - 1), m)

    def test_generators_validate_m(self):
        with pytest.raises(InputError):
            gen_star_multicut(1)
        with pytest.raises(InputError):
            gen_matching_apex(0)

    def test_star_refuses_a_float_m(self):
        with pytest.raises(InputError, match=r"^star generator needs an int m >= 2 leaves, got 3\.0$"):
            gen_star_multicut(3.0)

    def test_matching_refuses_a_float_m(self):
        with pytest.raises(InputError, match=r"^matching generator needs an int m >= 2 edges, got 3\.0$"):
            gen_matching_apex(3.0)


class TestDfvsGadget:
    def test_triangle_base_padded_structure(self):
        labeled = gen_dfvs_gadget(triangle_dfvs(), F(1))
        inst, labels = labeled.instance, labeled.labels
        p_set, q_in, q_out = labels["P"], labels["Q_in"], labels["Q_out"]
        assert len(p_set) == 6  # 3 * eps=1 needs one extra copy for integrality
        assert len(q_in) == len(q_out) == 3  # m = (1 - eps/2) * n'
        assert is_solution(inst, set(p_set))
        g = inst.graph
        for p in p_set:
            for qi, qo in zip(q_in, q_out):
                assert g.has_arc(p, qi) and g.has_arc(qi, qo) and g.has_arc(qo, p)

    def test_two_cycle_base_every_p_on_every_triangle(self):
        base = Instance(Problem.DFVS, Graph(2, True, [(0, 1), (1, 0)]))
        labeled = gen_dfvs_gadget(base, F(1))
        g = labeled.instance.graph
        for p in labeled.labels["P"]:
            for qi, qo in zip(labeled.labels["Q_in"], labeled.labels["Q_out"]):
                assert g.has_arc(p, qi) and g.has_arc(qi, qo) and g.has_arc(qo, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_small_bases_match_bruteforce(self, seed):
        base = random_instance(Problem.DFVS, 3, 40 + seed)
        labeled = gen_dfvs_gadget(base, F(1))
        assert opt_value(labeled.instance) == naive_opt(labeled.instance)

    def test_avoiding_a_base_vertex_costs_all_q_arcs(self):
        labeled = gen_dfvs_gadget(triangle_dfvs(), F(1))
        inst, labels = labeled.instance, labeled.labels
        m = len(labels["Q_in"])
        q_set = set(labels["Q"])
        for p in labels["P"][:2]:
            sol = solve_exact(inst, SolveBudget(forbidden=frozenset({p})))
            assert sol is not None and len(sol & q_set) >= m

    def test_eps_validation(self):
        with pytest.raises(InputError):
            gen_dfvs_gadget(triangle_dfvs(), F(0))
        with pytest.raises(InputError):
            gen_dfvs_gadget(triangle_dfvs(), F(3, 2))


class TestVcGadget:
    def test_single_edge_base(self):
        base = Instance(Problem.VERTEX_COVER, Graph(2, False, [(0, 1)]))
        labeled = gen_vc_gadget(base, F(1, 2))
        inst, labels = labeled.instance, labeled.labels
        n_p = len(labels["P"])
        assert len(labels["Q"]) == n_p // 4  # (1/2 - 1/4) * n'
        assert is_solution(inst, set(labels["P"]))
        # Q is an independent set: the graph minus P has no edges
        q = set(labels["Q"])
        assert all(not (u in q and v in q) for u, v in inst.graph.edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_small_bases_match_bruteforce(self, seed):
        base = random_instance(Problem.VERTEX_COVER, 4, 80 + seed)
        labeled = gen_vc_gadget(base, F(1, 2))
        assert opt_value(labeled.instance) == naive_opt(labeled.instance)

    def test_eps_validation(self):
        base = Instance(Problem.VERTEX_COVER, Graph(2, False, [(0, 1)]))
        with pytest.raises(InputError):
            gen_vc_gadget(base, F(3, 4))


@pytest.mark.parametrize("eps", [None, True, 0.25, "1/4"])
@pytest.mark.parametrize("gadget", ["dfvs", "vc"])
def test_gadget_eps_must_be_an_exact_rational(gadget, eps):
    if gadget == "dfvs":
        build, base = gen_dfvs_gadget, triangle_dfvs()
    else:
        build, base = gen_vc_gadget, Instance(Problem.VERTEX_COVER, Graph(2, False, [(0, 1)]))
    with pytest.raises(InputError, match=rf"^eps must be an int or a Fraction, got {re.escape(repr(eps))}$"):
        build(base, eps)


class TestVertexCap:
    """Each generator refuses a graph above the vertex cap before building any of
    it; gnp and star are checked through the CLI."""

    def test_matching_apex(self):
        with pytest.raises(SizeCapError, match=rf"^vertex count {MAX_VERTICES + 1} exceeds the cap"):
            gen_matching_apex(MAX_VERTICES // 2)

    @pytest.mark.parametrize("problem, build", [(Problem.DFVS, gen_dfvs_gadget), (Problem.VERTEX_COVER, gen_vc_gadget)])
    def test_gadget_padding(self, problem, build):
        # eps = 1/807 pads a 100-vertex base with 807 copies, 80,700
        # vertices, and Q takes the count past the cap; without the check
        # the gadget would build billions of edges
        base = Instance(problem, Graph(100, problem.directed, [(0, 1)]))
        with pytest.raises(SizeCapError, match=r"exceeds the cap"):
            build(base, F(1, 807))


class TestPadMultiplier:
    @staticmethod
    def smallest_by_search(n, c):
        """The least copy count t in 1..8n+8 with c * t * n an integer, or None."""
        return next((t for t in range(1, 8 * n + 9) if (c * t * n).denominator == 1), None)

    def test_denominator_is_the_least_count(self):
        refused = 0
        for n in range(13):
            for p, q in itertools.product(range(1, 16), repeat=2):
                eps = F(p, q)
                for c, valid in ((1 - eps / 2, eps <= 1), (F(1, 2) - eps / 2, eps <= F(1, 2))):
                    if not valid:
                        continue
                    want = self.smallest_by_search(n, c)
                    if want is None:
                        refused += 1
                        with pytest.raises(InputError, match="no small copy count"):
                            _pad_multiplier(n, c)
                    else:
                        assert _pad_multiplier(n, c) == want, (n, eps)
        assert refused > 0


class TestConvert:
    def test_triangle_dfvs_to_directed_multicut(self):
        src = triangle_dfvs()
        dst = convert(src, Problem.DIRECTED_VERTEX_MULTICUT)
        assert len(dst.terminals) == 3
        assert opt_value(src) == opt_value(dst) == 1

    def test_path_cover_to_multicut(self):
        src = Instance(Problem.VERTEX_COVER, Graph(3, False, [(0, 1), (1, 2)]))
        dst = convert(src, Problem.VERTEX_MULTICUT)
        assert dst.terminals == ((0, 1), (1, 2))
        assert opt_value(src) == opt_value(dst) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_random_solution_sets_agree(self, seed):
        # 100 subsets x 10 instances = 1000 samples per conversion
        rng = random.Random(seed)
        for src_problem, dst_problem in [
            (Problem.DFVS, Problem.DIRECTED_VERTEX_MULTICUT),
            (Problem.VERTEX_COVER, Problem.VERTEX_MULTICUT),
        ]:
            src = random_instance(src_problem, 6, 120 + seed)
            if src_problem is Problem.VERTEX_COVER and not src.graph.edges:
                continue
            dst = convert(src, dst_problem)
            for _ in range(100):
                x = frozenset(rng.sample(range(6), rng.randint(0, 6)))
                assert is_solution(src, x) == is_solution(dst, x) == naive_is_solution(dst, x)
            assert opt_value(src) == opt_value(dst)

    def test_unsupported_conversion_rejected(self):
        with pytest.raises(InputError):
            convert(triangle_dfvs(), Problem.VERTEX_COVER)

    def test_target_that_is_not_a_problem_rejected(self):
        with pytest.raises(InputError, match=r"^conversion target must be a Problem, got 'dfvs'$"):
            convert(triangle_dfvs(), "dfvs")


class TestGnp:
    def test_seeded_generation_is_reproducible(self):
        assert gen_gnp(10, 4).graph.edges == gen_gnp(10, 4).graph.edges
        assert gen_gnp(10, 4).graph.edges != gen_gnp(10, 5).graph.edges

    def test_refuses_a_float_n(self):
        with pytest.raises(InputError, match=r"^random graph generator needs an int n >= 4, got 6\.0$"):
            gen_gnp(6.0, 0)

    def test_p4_frequency_matches_the_four_vertex_census(self):
        # on 4 labeled vertices, 12 of the 64 graphs are a P4
        hits = sum(
            1 for seed in range(1500) if len(gen_gnp(4, seed).graph.edges) == 3
            and induces_p4(gen_gnp(4, seed).graph, (0, 1, 2, 3))
        )
        assert abs(hits / 1500 - 12 / 64) < 0.04

    def test_quarters_feasible_on_samples(self):
        for seed in range(5):
            inst = gen_gnp(9, seed)
            quarters = FractionalSolution((F(1, 4),) * 9, F(9, 4))
            assert verify_feasible(inst, quarters)

    def test_quarters_feasible_on_the_matching_family(self):
        for m in (2, 5, 9):
            inst = gen_matching_apex(m).instance
            n = inst.n
            quarters = FractionalSolution((F(1, 4),) * n, F(n, 4))
            assert verify_feasible(inst, quarters)


class TestMeasureGap:
    def test_star_ten_ratio(self):
        report = measure_gap(gen_star_multicut(10).instance, pinned=0)
        assert (report.fractional, report.integral, report.ratio) == (F(5), 9, F(9, 5))

    def test_matching_ten_ratio(self):
        report = measure_gap(gen_matching_apex(10).instance, pinned=0)
        assert report.ratio == F(9, 5)

    def test_obstacle_free_has_no_ratio(self):
        inst = Instance(Problem.VERTEX_COVER, Graph(3, False, []))
        report = measure_gap(inst)
        assert report.fractional == 0 and report.integral == 0 and report.ratio is None

    @pytest.mark.parametrize("pinned", [None, 0])
    @pytest.mark.parametrize("node_cap", [-1, 2.0, True])
    def test_bad_node_cap_refused_before_the_lp(self, monkeypatch, pinned, node_cap):
        def no_lp(*args, **kwargs):
            raise AssertionError("the LP ran before the node cap was checked")

        monkeypatch.setattr("essentia.lab.solve", no_lp)
        with pytest.raises(InputError, match=r"^node_cap must be a nonnegative int, got "):
            measure_gap(gen_star_multicut(4).instance, pinned=pinned, node_cap=node_cap)

    def test_csv_rows_are_exact(self):
        report = measure_gap(gen_star_multicut(6).instance, pinned=0, label="star6")
        text = gap_csv_rows([report])
        assert text.splitlines()[0] == "id,n,fractional,integral,ratio"
        assert text.splitlines()[1] == "star6,7,3/1,5,5/3"
        assert "." not in text.splitlines()[1]
        assert text == "id,n,fractional,integral,ratio\nstar6,7,3/1,5,5/3\n"

    @pytest.mark.parametrize(
        "label",
        ["star,3", 'say "hi"', 'a,"b",c', "two\nlines"],
        ids=["comma", "quote", "comma-and-quote", "newline"],
    )
    def test_csv_labels_are_quoted(self, label):
        report = measure_gap(gen_star_multicut(3).instance, pinned=0, label=label)
        rows = list(csv.reader(io.StringIO(gap_csv_rows([report, report]))))
        assert rows[0] == ["id", "n", "fractional", "integral", "ratio"]
        assert rows[1:] == [[label, "4", "3/2", "2", "4/3"]] * 2


class TestGnpExperiment:
    def test_rows_are_consistent(self):
        rows = gnp_gap_experiment(8, range(4))
        for row in rows:
            assert row.quarters_feasible
            assert row.max_p4_free_subset == 8 - row.integral
            if row.fractional > 0:
                assert row.ratio == F(row.integral) / row.fractional
            # cross-check the P4-free subset size by brute force
            inst = gen_gnp(8, row.seed)
            best = max(
                (k for k in range(8, -1, -1)
                 if any(
                     not any(induces_p4(inst.graph, q) for q in itertools.combinations(sub, 4))
                     for sub in itertools.combinations(range(8), k)
                 )),
            )
            assert best == row.max_p4_free_subset
