import random
from fractions import Fraction as F

import pytest

from essentia.detection import (
    DETECTION_THRESHOLDS,
    DetectionRequest,
    detect,
    essential_vertices_exact,
    lp_values,
)
from essentia.errors import SizeCapError
from essentia.exact import opt_value
from essentia.graphs import Graph
from essentia.lab import gen_matching_apex, gen_star_multicut, gen_vc_gadget
from essentia.lp import solve_restricted
from essentia.problems import Instance, Problem

from conftest import random_graph, random_instance
from oracles import naive_all_obstacle_sets, naive_opt, vertex_cover_lp_values


class TestDetect:
    def test_star_k1_selects_the_center_only(self):
        inst = gen_star_multicut(6).instance
        res = detect(DetectionRequest(inst, 1))
        assert res.selected == frozenset({0})
        assert res.lp_values[0] == F(3)
        assert all(res.lp_values[v] == F(1) for v in range(1, 7))
        # confirm every f_v against a fully enumerated LP, pin modeled by
        # dropping the pinned vertex from each constraint set
        obstacles = naive_all_obstacle_sets(inst)
        for v in range(inst.n):
            pool = sorted((s - {v} for s in obstacles), key=sorted)
            assert res.lp_values[v] == solve_restricted(pool, inst.n).value

    def test_obstacle_free_selects_nothing(self):
        inst = Instance(Problem.VERTEX_COVER, Graph(5, False, []))
        res = detect(DetectionRequest(inst, 0))
        assert res.selected == frozenset()
        assert set(res.lp_values) == {F(0)}

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_monotone_in_k(self, seed):
        rng = random.Random(seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 7, 300 + seed)
        values = lp_values(inst)
        prev = None
        for k in range(0, inst.n + 1):
            sel = frozenset(v for v, f in enumerate(values) if f > k)
            if prev is not None:
                assert sel <= prev
            prev = sel

    def test_parallel_jobs_match_sequential(self):
        inst = gen_matching_apex(4).instance
        assert lp_values(inst, jobs=2) == lp_values(inst, jobs=1)

    def test_jobs_clamped_to_cpu_count_and_n(self, monkeypatch):
        # the fake pool records its worker count and maps in-process, so no
        # worker process starts
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("essentia.detection.ProcessPoolExecutor", RecordingPool)
        inst = gen_star_multicut(4).instance  # n = 5
        want = lp_values(inst)
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 4)
        assert [lp_values(inst, jobs=j) for j in (1, 3, 4, 5, 10**6)] == [want] * 5
        assert seen == [3, 4, 4, 4]  # jobs=1 stays in-process
        seen.clear()
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 64)
        assert lp_values(inst, jobs=10**6) == want
        assert seen == [5]  # one worker per vertex at most
        seen.clear()
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: None)
        assert lp_values(inst, jobs=8) == want
        assert lp_values(inst, jobs=0) == want
        assert seen == []  # an unknown CPU count means one worker

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(6))
    def test_guarantees_at_k_equals_opt(self, problem, seed):
        inst = random_instance(problem, 7, 550 + seed)
        k = opt_value(inst)
        res = detect(DetectionRequest(inst, k))
        threshold = DETECTION_THRESHOLDS[problem]
        essential = essential_vertices_exact(inst, threshold)
        assert essential <= res.selected  # all highly essential vertices found
        # some optimal solution contains all of the selected set
        residual = naive_opt(inst, frozenset())
        forced = _opt_with_forced(inst, res.selected)
        assert forced == residual


def _opt_with_forced(inst, forced):
    from essentia.driver import restrict_instance

    sub, _ = restrict_instance(inst, frozenset(forced))
    return len(forced) + naive_opt(sub)


class TestVertexCoverLpByMatching:
    """f_v from the simplex against f_v from matchings in the double cover."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        rng = random.Random(4100 + seed)
        g = random_graph(rng.randint(6, 14), seed, p=rng.choice([0.15, 0.3, 0.5]))
        inst = Instance(Problem.VERTEX_COVER, g)
        assert lp_values(inst) == vertex_cover_lp_values(inst)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 2)])
    def test_gadgets(self, seed, eps):
        base = random_instance(Problem.VERTEX_COVER, 5, 4200 + seed)
        inst = gen_vc_gadget(base, eps).instance
        assert lp_values(inst) == vertex_cover_lp_values(inst)

    def test_triangle_left_over_is_half_integral(self):
        # an edge 0-1 beside a triangle 2-3-4: pinning 0 or 1 forces the other
        # and leaves the triangle (LP 3/2); pinning a triangle vertex forces
        # its two neighbours and leaves the edge (LP 1)
        inst = Instance(Problem.VERTEX_COVER, Graph(5, False, [(0, 1), (2, 3), (3, 4), (2, 4)]))
        expected = (F(5, 2), F(5, 2), F(3), F(3), F(3))
        assert vertex_cover_lp_values(inst) == expected
        assert lp_values(inst) == expected


class TestEssentialExact:
    @pytest.mark.parametrize("m,expected", [(4, set()), (5, {0}), (7, {0})])
    def test_star_three_approx(self, m, expected):
        inst = gen_star_multicut(m).instance
        got = essential_vertices_exact(inst, F(3))
        assert got == frozenset(expected)  # center essential iff m - 1 > 3

    def test_triangle_dfvs_has_no_two_essential(self):
        inst = Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
        assert essential_vertices_exact(inst, F(2)) == frozenset()

    def test_matching_apex_eight_edges(self):
        inst = gen_matching_apex(8).instance
        got = essential_vertices_exact(inst, F(7, 2), size_cap=17)
        assert got == frozenset({0})  # avoiding the apex costs 7 > 3.5 * 1

    def test_size_cap_enforced(self):
        inst = gen_matching_apex(8).instance  # n = 17 > default cap
        with pytest.raises(SizeCapError):
            essential_vertices_exact(inst, F(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_bruteforce_definition(self, seed):
        rng = random.Random(seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 6, 700 + seed)
        c = F(rng.randint(2, 7), 2)
        opt = naive_opt(inst)
        want = set()
        for v in range(6):
            avoiding = naive_opt(inst, frozenset({v}))
            if avoiding is None or avoiding > c * opt:
                want.add(v)
        assert essential_vertices_exact(inst, c) == frozenset(want)
