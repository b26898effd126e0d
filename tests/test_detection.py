import logging
import random
import re
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from essentia import detection
from essentia.detection import (
    DETECTION_THRESHOLDS,
    DetectionResult,
    detect,
    essential_vertices_exact,
    lp_values,
)
from essentia.driver import solve_with_detection
from essentia.errors import InputError, SizeCapError
from essentia.exact import opt_value
from essentia.graphs import Graph
from essentia.lab import gen_dfvs_gadget, gen_gnp, gen_matching_apex, gen_star_multicut, gen_vc_gadget
from essentia.lp import solve
from essentia.problems import Instance, Problem
from essentia.simplex import PackingSimplex

from conftest import engine_snapshot, random_graph, random_instance, record_pivots
from oracles import (
    fraction_cutting_planes,
    naive_all_obstacle_sets,
    naive_opt,
    per_vertex_lp_values,
    solve_restricted,
    vertex_cover_lp_values,
)

PATH_FAMILIES = (Problem.VERTEX_MULTICUT, Problem.DIRECTED_VERTEX_MULTICUT, Problem.DFVS)

FIVE_CYCLE = Instance(
    Problem.VERTEX_COVER, Graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
)


class TestDetect:
    def test_star_k1_selects_the_center_only(self):
        inst = gen_star_multicut(6).instance
        res = detect(inst, 1)
        assert res.selected == frozenset({0})
        assert res.lp_values[0] == F(3)
        assert all(res.lp_values[v] == F(1) for v in range(1, 7))
        # confirm every f_v against a fully enumerated LP, pin modeled by
        # dropping the pinned vertex from each constraint set
        obstacles = naive_all_obstacle_sets(inst)
        for v in range(inst.n):
            pool = sorted((s - {v} for s in obstacles), key=sorted)
            assert res.lp_values[v] == solve_restricted(pool, inst.n).value

    def test_result_built_from_a_list_equals_the_tuple_built_one(self):
        from_tuple = DetectionResult((F(2), F(0)), F(1))
        from_list = DetectionResult([F(2), F(0)], F(1))
        assert from_list.lp_values == (F(2), F(0)) and from_list.selected == frozenset({0})
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)

    @pytest.mark.parametrize("k", [1.5, True, 1.0, "1"])
    def test_k_that_is_not_an_int_is_input_error(self, k):
        inst = gen_star_multicut(3).instance
        with pytest.raises(InputError, match=rf"^k must be an int, got {re.escape(repr(k))}$"):
            detect(inst, k)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_k_outside_zero_to_n_is_input_error(self, monkeypatch, k):
        # refused before any LP runs
        monkeypatch.setattr(detection, "lp_values", None)
        inst = gen_star_multicut(3).instance
        with pytest.raises(InputError, match=rf"^k={k} out of range \(n=4\)$"):
            detect(inst, k)

    def test_obstacle_free_selects_nothing(self):
        inst = Instance(Problem.VERTEX_COVER, Graph(5, False, []))
        res = detect(inst, 0)
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

    def test_parallel_jobs_match_sequential(self, monkeypatch):
        # two real worker processes, whatever this machine's CPU count
        seen = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 2)
        cograph = random_instance(Problem.COGRAPH_DELETION, 9, 4)
        dfvs = gen_dfvs_gadget(random_instance(Problem.DFVS, 4, 17), F(1, 2)).instance
        multicut = random_instance(Problem.VERTEX_MULTICUT, 9, 12)
        for inst in (cograph, dfvs, multicut):
            assert lp_values(inst, jobs=2) == lp_values(inst, jobs=1)
        assert seen == [2, 2, 2]  # each instance left pinned LPs for both workers

    @pytest.mark.parametrize("problem", [Problem.COGRAPH_DELETION, *PATH_FAMILIES])
    def test_parallel_jobs_give_the_same_starts(self, problem, monkeypatch):
        # an in-process pool: every pinned LP starts from the unpinned LP's
        # solution, however the vertices are split
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 2)
        for seed in range(4):
            inst = random_instance(problem, 9, 60 + seed)
            by_jobs = {}
            for jobs in (1, 2):
                calls = []
                with mock.patch.object(detection, "solve", _recording_solve(calls)):
                    by_jobs[jobs] = lp_values(inst, jobs=jobs)
                _assert_route(calls)
            assert by_jobs[1] == by_jobs[2] == per_vertex_lp_values(inst)

    def test_jobs_clamped_to_cpu_count_and_n(self, monkeypatch):
        # the fake pool records its worker count and maps in-process, so no
        # worker process starts; K_5's unpinned DFVS optimum is all 1/2 and
        # no pinned optimum has its value, so five pinned LPs are left
        seen = []

        class RecordingPool(_InProcessPool):
            def __init__(self, max_workers):
                seen.append(max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        inst = _complete(Problem.DFVS, 5)
        want = lp_values(inst)
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 4)
        assert [lp_values(inst, jobs=j) for j in (1, 3, 4, 5, 10**6)] == [want] * 5
        assert seen == [3, 4, 4, 4]  # jobs=1 stays in-process
        seen.clear()
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 64)
        assert lp_values(inst, jobs=10**6) == want
        assert seen == [5]  # one worker per pinned LP at most
        seen.clear()
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: None)
        assert lp_values(inst, jobs=8) == want
        assert seen == []  # an unknown CPU count means one worker

    @pytest.mark.parametrize("jobs", [0, -3, True, False, 2.5, "2", None])
    def test_jobs_not_an_int_of_at_least_one_is_refused(self, monkeypatch, jobs):
        # refused before any work, vertex cover included, and by every entry that passes jobs on
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
        message = rf"^jobs must be an int >= 1, got {re.escape(repr(jobs))}$"
        star = gen_star_multicut(4).instance
        for inst in (star, FIVE_CYCLE):
            with pytest.raises(InputError, match=message):
                lp_values(inst, jobs=jobs)
        with pytest.raises(InputError, match=message):
            detect(star, 1, jobs=jobs)
        with pytest.raises(InputError, match=message):
            solve_with_detection(star, jobs=jobs)

    def test_one_job_never_asks_the_cpu_count(self, monkeypatch):
        def cpu_count():
            raise AssertionError("os.cpu_count() called for jobs=1")

        monkeypatch.setattr("essentia.detection.os.cpu_count", cpu_count)
        inst = random_instance(Problem.COGRAPH_DELETION, 9, 4)
        assert lp_values(inst) == lp_values(inst, jobs=1) == per_vertex_lp_values(inst)

    def test_vertex_cover_starts_no_worker(self, monkeypatch):
        # f_v comes from matchings, so there is nothing to split
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 64)
        assert lp_values(FIVE_CYCLE, jobs=8) == (F(3),) * 5

    def test_workers_clamped_to_pinned_lps_left(self, monkeypatch):
        # the star's unpinned optimum settles every leaf, so one pinned LP is
        # left and it runs in-process whatever jobs asks for
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 64)
        inst = gen_star_multicut(4).instance
        assert lp_values(inst, jobs=8) == (F(2),) + (F(1),) * 4

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(6))
    def test_guarantees_at_k_equals_opt(self, problem, seed):
        inst = random_instance(problem, 7, 550 + seed)
        k = opt_value(inst)
        res = detect(inst, k)
        threshold = DETECTION_THRESHOLDS[problem]
        essential = essential_vertices_exact(inst, threshold)
        assert essential <= res.selected  # all highly essential vertices found
        # some optimal solution contains all of the selected set
        residual = naive_opt(inst, frozenset())
        forced = _opt_with_forced(inst, res.selected)
        assert forced == residual


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: maps in this process, starts nothing."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _recording_solve(calls):
    """A `solve` that appends (pinned, start, solution) to `calls` and checks it only reads its start."""

    def recording_solve(inst, pinned=None, start=None):
        before = None if start is None else engine_snapshot(start.tableau)
        sol = solve(inst, pinned, start=start)
        if start is not None:
            assert engine_snapshot(start.tableau) == before
        calls.append((pinned, start, sol))
        return sol

    return recording_solve


def _assert_route(calls):
    """The unpinned LP came first, from nothing, and every pinned LP started from it.

    Each vertex is pinned at most once, and never a zero of the unpinned
    optimum: the zero rule settles those.
    """
    pin, start, top = calls[0]
    assert (pin, start) == (None, None)
    pins = [v for v, _, _ in calls[1:]]
    assert len(set(pins)) == len(pins) and None not in pins
    for v, start, _ in calls[1:]:
        assert start is top and top.weights[v] != 0


def _opt_with_forced(inst, forced):
    from essentia.driver import restrict_instance

    sub, _ = restrict_instance(inst, frozenset(forced))
    return len(forced) + naive_opt(sub)


class TestVertexCoverLpByMatching:
    """f_v by double-cover matchings against the simplex and networkx's matchings."""

    @staticmethod
    def check(inst):
        got = lp_values(inst)
        assert got == per_vertex_lp_values(inst) == vertex_cover_lp_values(inst)
        return got

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        rng = random.Random(4100 + seed)
        g = random_graph(rng.randint(6, 14), seed, p=rng.choice([0.15, 0.3, 0.5]))
        self.check(Instance(Problem.VERTEX_COVER, g))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 2)])
    def test_gadgets(self, seed, eps):
        base = random_instance(Problem.VERTEX_COVER, 5, 4200 + seed)
        inst = gen_vc_gadget(base, eps).instance
        if eps == F(1, 2) or seed == 0:
            self.check(inst)
        else:  # n = 55: about 2 s of cold simplex LPs each, so networkx only
            assert lp_values(inst) == vertex_cover_lp_values(inst)

    @pytest.mark.parametrize("n", [0, 1, 2, 6])
    def test_edgeless_graphs(self, n):
        assert self.check(Instance(Problem.VERTEX_COVER, Graph(n, False, []))) == (F(0),) * n

    def test_isolated_vertices_get_the_lp_value(self):
        # pinning an isolated vertex forces nothing: f_v = LP* = 3/2 + 1
        g = Graph(7, False, [(0, 1), (1, 2), (0, 2), (3, 4)])
        got = self.check(Instance(Problem.VERTEX_COVER, g))
        assert got[5] == got[6] == F(5, 2)

    def test_triangle_left_over_is_half_integral(self):
        # an edge 0-1 beside a triangle 2-3-4: pinning 0 or 1 forces the other
        # and leaves the triangle (LP 3/2); pinning a triangle vertex forces
        # its two neighbours and leaves the edge (LP 1)
        inst = Instance(Problem.VERTEX_COVER, Graph(5, False, [(0, 1), (2, 3), (3, 4), (2, 4)]))
        assert self.check(inst) == (F(5, 2), F(5, 2), F(3), F(3), F(3))


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

    def test_negative_size_cap_is_input_error(self):
        inst = gen_matching_apex(2).instance
        with pytest.raises(InputError, match=r"^size_cap must be a nonnegative int, got -1$"):
            essential_vertices_exact(inst, F(2), size_cap=-1)

    @pytest.mark.parametrize("c", ["x", None, 2.5, True])
    def test_factor_that_is_not_an_exact_rational(self, c):
        inst = gen_star_multicut(3).instance
        msg = rf"^essentiality factor must be an int or a Fraction, got {re.escape(repr(c))}$"
        with pytest.raises(InputError, match=msg):
            essential_vertices_exact(inst, c)

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


def _complete(problem, k):
    """K_k in the problem's flavour; every unpinned optimum is all 1/2."""
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    if problem.directed:
        g = Graph(k, True, pairs)
    else:
        g = Graph(k, False, [(a, b) for a, b in pairs if a < b])
    return Instance(problem, g, pairs if problem.uses_terminals else ())


def _obstacle_free(problem, n, rng):
    if problem is Problem.DFVS:  # arcs only run upwards: a DAG
        arcs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        return Instance(problem, Graph(n, True, arcs))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    terms = rng.sample(pairs, min(3, len(pairs))) if problem.uses_terminals else ()
    return Instance(problem, Graph(n, problem.directed, []), terms)


@st.composite
def detection_instances(draw):
    """An instance with n = 0-9 from one of five shapes, over all five problems.

    random: `random_instance`; empty: no obstacle at all, so every f_v = 0;
    star: `gen_star_multicut`; gadget: `gen_dfvs_gadget` around a random
    DFVS base; complete: K_k, whose unpinned optimum has no zero (for the
    path families and vertex cover).
    """
    shape = draw(st.sampled_from(["random", "empty", "star", "gadget", "complete"]))
    if shape == "star":
        return gen_star_multicut(draw(st.integers(2, 8))).instance
    if shape == "gadget":
        base_n, eps = draw(st.sampled_from([(2, F(1)), (3, F(2, 3)), (4, F(1))]))  # n = 4, 7, 8
        base = random_instance(Problem.DFVS, base_n, draw(st.integers(0, 10**6)))
        return gen_dfvs_gadget(base, eps).instance
    problem = draw(st.sampled_from(list(Problem)))
    low = 2 if problem.uses_terminals else 0
    if shape == "complete":
        return _complete(problem, draw(st.integers(max(low, 1), 9)))
    n = draw(st.integers(low, 9))
    seed = draw(st.integers(0, 10**6))
    if shape == "empty":
        return _obstacle_free(problem, n, random.Random(seed))
    return random_instance(problem, n, seed)


class TestLpValuesMatchPerVertexSolves:
    """`lp_values` (matching, zero rule, warm starts) against one LP per vertex."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(detection_instances())
    def test_same_values_and_route(self, inst):
        calls = []
        with mock.patch.object(detection, "solve", _recording_solve(calls)):
            got = lp_values(inst)
        assert got == per_vertex_lp_values(inst)
        if inst.problem is Problem.VERTEX_COVER:
            assert calls == []  # f_v by matching: no LP at all
            return
        _assert_route(calls)

    def test_no_zero_in_the_unpinned_optimum(self):
        for problem in PATH_FAMILIES:
            inst = _complete(problem, 5)
            assert set(solve(inst).weights) == {F(1, 2)}
            # pinning v forces x = 1 on the other four
            assert lp_values(inst) == per_vertex_lp_values(inst) == (F(4),) * 5

    def test_obstacle_free_needs_one_solve(self):
        inst = _obstacle_free(Problem.DFVS, 7, random.Random(3))
        with mock.patch.object(detection, "solve", wraps=solve) as spy:
            assert lp_values(inst) == (F(0),) * 7
        assert spy.call_count == 1


def _relabel(inst, rng):
    perm = list(range(inst.n))
    rng.shuffle(perm)
    g = inst.graph
    return Instance(inst.problem, Graph(g.n, g.directed, [(perm[u], perm[v]) for u, v in g.edges]))


def _bench_size_instances(family):
    """A dozen instances of one family at the benchmark's sizes, built here."""
    rng = random.Random(family)
    for seed in range(12):
        if family == "cograph":
            yield gen_gnp(10, seed)
        elif family == "matching-apex":
            yield _relabel(gen_matching_apex(rng.randint(8, 12)).instance, rng)
        else:
            base = Instance(Problem.DFVS, random_graph(4, seed, directed=True, p=0.5))
            yield gen_dfvs_gadget(base, F(1)).instance


class TestLpValuesAtBenchSize:
    """`lp_values` against the `Fraction` reference, which runs no kernel code."""

    @pytest.mark.parametrize("family", ["cograph", "matching-apex", "dfvs-gadget"])
    def test_against_fraction_cutting_planes(self, family):
        for inst in _bench_size_instances(family):
            want = tuple(fraction_cutting_planes(inst, v).value for v in range(inst.n))
            assert lp_values(inst) == want


def _detection_record(caplog, monkeypatch, inst, jobs=1):
    """The DEBUG record's args, each LP solve's (pinned, start, result) and the pivot log."""
    calls = []
    log = record_pivots(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="essentia.detection"):
        with mock.patch.object(detection, "solve", _recording_solve(calls)):
            lp_values(inst, jobs=jobs)
    [record] = [r for r in caplog.records if r.name == "essentia.detection"]
    return record.args, calls, log


class TestLogging:
    def test_star_settles_every_leaf(self, caplog, monkeypatch):
        inst = gen_star_multicut(5).instance
        (solves, pivots, settled), calls, log = _detection_record(caplog, monkeypatch, inst)
        assert solves == len(calls)
        assert pivots == len(log) == sum(sol.tableau.pivots for _, _, sol in calls)
        zeros = [v for v, x in enumerate(solve(inst).weights) if x == 0]
        assert zeros == [1, 2, 3, 4, 5]
        assert settled == len(zeros) == inst.n + 1 - solves
        assert (solves, pivots, settled) == (2, 6, 5)

    def test_dfvs_gadget(self, caplog, monkeypatch):
        base = Instance(Problem.DFVS, Graph(4, True, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]))
        inst = gen_dfvs_gadget(base, F(1)).instance  # n = 8
        (solves, pivots, settled), calls, log = _detection_record(caplog, monkeypatch, inst)
        assert solves == len(calls) and settled == inst.n + 1 - solves
        assert pivots == len(log) == sum(sol.tableau.pivots for _, _, sol in calls)
        zeros = [v for v, x in enumerate(calls[0][2].weights) if x == 0]
        assert zeros == [6, 7]  # so two more were settled by a pinned optimum
        assert (solves, settled) == (5, 4)

    def test_vertex_cover_solves_no_lp(self, caplog, monkeypatch):
        (solves, pivots, settled), calls, log = _detection_record(caplog, monkeypatch, FIVE_CYCLE)
        assert (solves, pivots, settled) == (0, 0, 0) and calls == log == []

    def test_pivot_total_counts_the_workers(self, caplog, monkeypatch):
        # two real worker processes: their pinned LPs' pivots come back with
        # their values, so the total is the one-process run's
        monkeypatch.setattr("essentia.detection.os.cpu_count", lambda: 2)
        inst = random_instance(Problem.COGRAPH_DELETION, 9, 4)
        (solves, pivots, settled), _, log = _detection_record(caplog, monkeypatch, inst)
        assert pivots == len(log) > 0
        caplog.clear()
        assert _detection_record(caplog, monkeypatch, inst, jobs=2)[0] == (solves, pivots, settled)

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="essentia.detection"):
            lp_values(gen_star_multicut(5).instance)
        assert not [r for r in caplog.records if r.name == "essentia.detection"]


# (family, key, (LP solves, cuts, pivots)) of `lp_values` per instance, as
# the kernel made them when these numbers were taken.  The covering x each
# LP returns follows from its pivot sequence, so a kernel change that moves
# these counts may change x, the rounding certificates built on it and
# the cuts later LPs add, and has to say so.
_LP_COUNTS = [
    ("cograph", 1, (13, 114, 265)),
    ("cograph", 2, (13, 81, 218)),
    ("cograph", 3, (13, 110, 272)),
    ("matching-apex", 6, (2, 10, 14)),
    ("matching-apex", 9, (2, 14, 19)),
    ("matching-apex", 12, (2, 13, 16)),
    ("multicut", 1, (7, 31, 79)),
    ("multicut", 2, (3, 41, 123)),
    ("multicut", 3, (3, 16, 30)),
]


@pytest.mark.parametrize("family, key, want", _LP_COUNTS)
def test_lp_values_makes_a_fixed_number_of_solves_cuts_and_pivots(caplog, monkeypatch, family, key, want):
    if family == "cograph":
        inst = random_instance(Problem.COGRAPH_DELETION, 12, key)
    elif family == "matching-apex":
        inst = _relabel(gen_matching_apex(key).instance, random.Random(key))
    else:
        inst = random_instance(Problem.VERTEX_MULTICUT, 14, key)
    cuts = []
    add = PackingSimplex.add_constraint
    monkeypatch.setattr(PackingSimplex, "add_constraint", lambda engine, vs: cuts.append(vs) or add(engine, vs))
    (solves, pivots, _), _, log = _detection_record(caplog, monkeypatch, inst)
    assert pivots == len(log)
    assert (solves, len(cuts), pivots) == want
