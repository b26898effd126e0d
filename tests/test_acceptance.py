"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to watch the lines as they
appear; without -s pytest shows them for failing criteria only.  Every
tolerance here is exact: values are compared as rationals, counts as ints,
and a single violation fails the criterion.
"""

import itertools
import random
import statistics
import time
from fractions import Fraction as F


from essentia.detection import (
    DETECTION_THRESHOLDS,
    essential_vertices_exact,
    lp_values,
)
from essentia.driver import restrict_instance, solve_with_detection
from essentia.exact import opt_value
from essentia.graphs import Graph
from essentia.lab import (
    convert,
    gen_dfvs_gadget,
    gen_gnp,
    gen_matching_apex,
    gen_star_multicut,
    gen_vc_gadget,
    measure_gap,
)
from essentia.lp import solve
from essentia.problems import Instance, Problem, is_solution
from essentia.rounding import round_cograph, round_directed_multicut, round_multicut

from conftest import gnp_gap_experiment, random_instance, random_singleton_instance
from oracles import (
    float_lp_value,
    induces_p4,
    naive_all_obstacle_sets,
    naive_is_solution,
    naive_opt,
    solve_restricted,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def _directed_star(p: int, q: int) -> Instance:
    arcs = [(i, 0) for i in range(1, p + 1)]
    arcs += [(0, p + j) for j in range(1, q + 1)]
    pairs = tuple((i, p + j) for i in range(1, p + 1) for j in range(1, q + 1))
    return Instance(Problem.DIRECTED_VERTEX_MULTICUT, Graph(p + q + 1, True, arcs), pairs)


_corpus_cache = None


def regression_corpus():
    """The fixed instance corpus shared by the sweep criteria."""
    global _corpus_cache
    if _corpus_cache is not None:
        return _corpus_cache
    corpus = []
    for m in range(2, 11):
        corpus.append((f"star-{m}", gen_star_multicut(m).instance))
        corpus.append((f"matching-apex-{m}", gen_matching_apex(m).instance))
    for p, q in [(2, 2), (3, 2), (3, 3)]:
        corpus.append((f"directed-star-{p}-{q}", _directed_star(p, q)))
    tri = Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
    corpus.append(("dfvs-gadget-triangle", gen_dfvs_gadget(tri, F(1)).instance))
    edge = Instance(Problem.VERTEX_COVER, Graph(2, False, [(0, 1)]))
    corpus.append(("vc-gadget-edge", gen_vc_gadget(edge, F(1, 2)).instance))
    corpus.append(("tri-to-dvm", convert(tri, Problem.DIRECTED_VERTEX_MULTICUT)))
    for seed in range(5):
        corpus.append((f"gnp-8-{seed}", gen_gnp(8, seed)))
    rng = random.Random(20240)
    for problem in Problem:
        for i in range(8):
            n = rng.randint(5, 8)
            corpus.append((f"rand-{problem.value}-{i}", random_instance(problem, n, 9000 + i)))
    for problem in (
        Problem.VERTEX_MULTICUT,
        Problem.DIRECTED_VERTEX_MULTICUT,
        Problem.COGRAPH_DELETION,
    ):
        for i in range(4):
            inst, _ = random_singleton_instance(problem, rng.randint(5, 8), 400 + i)
            corpus.append((f"singleton-{problem.value}-{i}", inst))
    _corpus_cache = corpus
    return corpus


def test_criterion_1_star_tight_family():
    start = time.perf_counter()
    violations = []
    for m in range(2, 26):
        inst = gen_star_multicut(m).instance
        report = measure_gap(inst, pinned=0)
        n_total = inst.n
        if report.fractional != F(n_total - 1, 2):
            violations.append(f"m={m}: fractional {report.fractional}")
        if report.integral != n_total - 2:
            violations.append(f"m={m}: integral {report.integral}")
        if report.ratio != F(2 * (m - 1), m):
            violations.append(f"m={m}: ratio {report.ratio}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        violations.append(f"runtime {elapsed:.2f}s >= 5s")
    ok = not violations
    _report(1, ok, f"star family m=2..25 exact gap values in {elapsed:.2f}s")
    assert ok, violations


def test_criterion_2_matching_apex_tight_family():
    start = time.perf_counter()
    violations = []
    for m in range(2, 26):
        report = measure_gap(gen_matching_apex(m).instance, pinned=0)
        if report.ratio != F(2 * (m - 1), m):
            violations.append(f"m={m}: ratio {report.ratio}")
        if report.fractional != F(m, 2) or report.integral != m - 1:
            violations.append(f"m={m}: {report.fractional} / {report.integral}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        violations.append(f"runtime {elapsed:.2f}s >= 5s")
    ok = not violations
    _report(2, ok, f"matching+apex family m=2..25 exact gap 2(m-1)/m in {elapsed:.2f}s")
    assert ok, violations


def test_criterion_3_rounding_factor_certification():
    start = time.perf_counter()
    plans = [
        (Problem.VERTEX_MULTICUT, F(2), round_multicut),
        (Problem.DIRECTED_VERTEX_MULTICUT, F(4), round_directed_multicut),
        (Problem.COGRAPH_DELETION, F(5, 2), round_cograph),
    ]
    violations = []
    per_problem = 500
    for problem, factor, rounder in plans:
        # a stable salt per problem: hash() of a str is salted per process
        salt = list(Problem).index(problem)
        for seed in range(per_problem):
            rng = random.Random(seed * 7919 + salt)
            n = rng.randint(4, 9)
            inst, v = random_singleton_instance(problem, n, seed)
            x = solve(inst, v)
            cert = rounder(inst, v, x)
            tag = f"{problem.value} seed={seed}"
            if len(cert.integral_set) > factor * x.value:
                violations.append(f"{tag}: factor exceeded")
            if v in cert.integral_set:
                violations.append(f"{tag}: pinned vertex used")
            if not is_solution(inst, cert.integral_set):
                violations.append(f"{tag}: infeasible output")
            if not naive_is_solution(inst, cert.integral_set):
                violations.append(f"{tag}: independent feasibility check failed")
            residual, _ = restrict_instance(inst, cert.integral_set)
            if opt_value(residual) != 0:
                violations.append(f"{tag}: exact solver finds surviving obstacles")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        violations.append(f"runtime {elapsed:.1f}s >= 600s")
    ok = not violations
    _report(3, ok, f"rounding bounds 2z/4z/2.5z on 3x{per_problem} instances in {elapsed:.1f}s")
    assert ok, violations[:10]


def test_criterion_4_detection_guarantees():
    start = time.perf_counter()
    violations = []
    per_problem = 300
    for problem in Problem:
        threshold = DETECTION_THRESHOLDS[problem]
        for seed in range(per_problem):
            rng = random.Random(seed * 104729 + 17)
            n = rng.randint(4, 10)
            inst = random_instance(problem, n, seed)
            k = opt_value(inst)
            values = lp_values(inst)
            selected = frozenset(u for u, f in enumerate(values) if f > k)
            tag = f"{problem.value} seed={seed}"
            essential = essential_vertices_exact(inst, threshold)
            if not essential <= selected:
                violations.append(f"{tag}: essential set escapes detection")
            sub, _ = restrict_instance(inst, selected)
            if len(selected) + opt_value(sub) != k:
                violations.append(f"{tag}: no optimal solution contains the selection")
    elapsed = time.perf_counter() - start
    if elapsed >= 1800:
        violations.append(f"runtime {elapsed:.1f}s >= 1800s")
    ok = not violations
    _report(4, ok, f"G1/G2 on 5x{per_problem} instances at k=opt in {elapsed:.1f}s")
    assert ok, violations[:10]


def test_criterion_5_driver_optimality_and_budget():
    start = time.perf_counter()
    violations = []
    total = 200
    problems = list(Problem)
    for i in range(total):
        problem = problems[i % len(problems)]
        rng = random.Random(31337 + i)
        n = rng.randint(4, 10)
        inst = random_instance(problem, n, 5000 + i)
        report = solve_with_detection(inst)
        tag = f"{problem.value} i={i}"
        opt = opt_value(inst)
        if report.opt != opt or len(report.solution) != opt:
            violations.append(f"{tag}: suboptimal ({report.opt} vs {opt})")
        if not is_solution(inst, report.solution):
            violations.append(f"{tag}: infeasible driver output")
        essential = essential_vertices_exact(inst, DETECTION_THRESHOLDS[problem])
        if report.residual_budget > opt - len(essential):
            violations.append(f"{tag}: residual budget {report.residual_budget}")
    elapsed = time.perf_counter() - start
    ok = not violations
    _report(5, ok, f"driver optimal with bounded residual on {total} instances in {elapsed:.1f}s")
    assert ok, violations[:10]


def test_criterion_6_weak_duality_sweep():
    violations = []
    for name, inst in regression_corpus():
        fractional = solve(inst).value
        integral = opt_value(inst)
        if not fractional <= integral:
            violations.append(f"{name}: LP {fractional} > opt {integral}")
    ok = not violations
    _report(6, ok, f"LP <= integral optimum on {len(regression_corpus())} corpus instances")
    assert ok, violations


def test_criterion_7_standard_cograph_gap_experiment():
    # The near-4 asymptotic lower bound for the unpinned relaxation needs
    # graphs with only polylog-size P4-free subsets; at desk scale (n = 12)
    # it is NOT reproducible, so this experiment reports the observed ratio
    # distribution and checks the counting bound on qualifying samples.
    seeds = range(50)
    n = 12
    rows = gnp_gap_experiment(n, seeds)
    violations = []
    ratios = []
    counting_bound_hits = 0
    for row in rows:
        if not row.quarters_feasible:
            violations.append(f"seed={row.seed}: all-quarters assignment infeasible")
        assert row.ratio is not None
        ratios.append(row.ratio)
        # independent route: brute-force every 8-vertex subset for an induced P4
        inst = gen_gnp(n, row.seed)
        p4_quads = [
            frozenset(q) for q in itertools.combinations(range(n), 4) if induces_p4(inst.graph, q)
        ]
        every_8_subset_dense = all(
            any(quad <= frozenset(sub) for quad in p4_quads)
            for sub in itertools.combinations(range(n), 8)
        )
        if every_8_subset_dense != (row.max_p4_free_subset < 8):
            violations.append(f"seed={row.seed}: subset census disagrees with the exact solver")
        if every_8_subset_dense:
            counting_bound_hits += 1
            if row.ratio < F(n - 8, 1) / F(n, 4):  # = 4/3
                violations.append(f"seed={row.seed}: ratio {row.ratio} below 4/3")
    lo, hi = min(ratios), max(ratios)
    med = statistics.median(ratios)
    ok = not violations
    _report(
        7,
        ok,
        f"all-quarters feasible on 50/50 seeds; ratio min={lo} median={med} max={hi}; "
        f"{counting_bound_hits} dense samples all respect the 4/3 counting bound",
    )
    assert ok, violations


def test_criterion_8_gadget_structure_and_converters():
    violations = []
    rng = random.Random(777)
    for i in range(20):
        base = random_instance(Problem.DFVS, rng.randint(3, 4), 600 + i)
        eps = rng.choice([F(1), F(1, 2), F(1, 4)])
        labeled = gen_dfvs_gadget(base, eps)
        inst, labels = labeled.instance, labeled.labels
        g = inst.graph
        if not is_solution(inst, set(labels["P"])):
            violations.append(f"dfvs-gadget {i}: P is not a feedback vertex set")
        for p in labels["P"]:
            for qi, qo in zip(labels["Q_in"], labels["Q_out"]):
                if not (g.has_arc(p, qi) and g.has_arc(qi, qo) and g.has_arc(qo, p)):
                    violations.append(f"dfvs-gadget {i}: missing triangle ({p},{qi},{qo})")
    for i in range(20):
        base = random_instance(Problem.VERTEX_COVER, rng.randint(3, 5), 700 + i)
        labeled = gen_vc_gadget(base, rng.choice([F(1, 2), F(1, 4)]))
        inst, labels = labeled.instance, labeled.labels
        q = set(labels["Q"])
        for u, v in inst.graph.edges:
            if u in q and v in q:
                violations.append(f"vc-gadget {i}: edge inside Q")
        if not is_solution(inst, set(labels["P"])):
            violations.append(f"vc-gadget {i}: P is not a vertex cover")
    for i in range(20):
        src = random_instance(Problem.DFVS, rng.randint(4, 6), 800 + i)
        dst = convert(src, Problem.DIRECTED_VERTEX_MULTICUT)
        if naive_opt(src) != naive_opt(dst):
            violations.append(f"convert dfvs {i}: optimum changed")
        src = random_instance(Problem.VERTEX_COVER, rng.randint(4, 6), 900 + i)
        dst = convert(src, Problem.VERTEX_MULTICUT)
        if naive_opt(src) != naive_opt(dst):
            violations.append(f"convert vc {i}: optimum changed")
    ok = not violations
    _report(8, ok, "gadget structure and converter optima verified on 20 bases each")
    assert ok, violations


def test_criterion_9_oracle_completeness():
    violations = []
    checked = 0
    for name, inst in regression_corpus():
        if inst.n > 8:
            continue
        checked += 1
        sol = solve(inst)
        obstacles = naive_all_obstacle_sets(inst)
        for s in sorted(obstacles, key=sorted):
            if sum((sol.weights[u] for u in s), F(0)) < 1:
                violations.append(f"{name}: obstacle {sorted(s)} underfilled")
        full_pool = sorted(obstacles, key=sorted)
        reference = solve_restricted(full_pool, inst.n).value if full_pool else F(0)
        if sol.value != reference:
            violations.append(f"{name}: value {sol.value} != full-pool optimum {reference}")
        if full_pool:
            float_ref = float_lp_value(obstacles, inst.n)
            if abs(float(sol.value) - float_ref) > 1e-6:
                violations.append(f"{name}: float cross-check off by {float(sol.value) - float_ref}")
    ok = not violations
    _report(9, ok, f"cutting-plane optimum equals the fully enumerated LP on {checked} instances")
    assert ok, violations
