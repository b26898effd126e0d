"""Shared instance builders for the test suite, and simplex state and pivot probes.

Random instances are always built from an explicit seed so failures replay.
`random_singleton_instance` constructs instances together with a vertex v
such that {v} alone hits every obstacle, the regime the rounding procedures
require: multicut flavors route every terminal pair through v by keeping the
terminal groups otherwise disconnected, and the P4-hitting flavor grows a
random cograph first and then attaches v arbitrarily.  `gnp_gap_experiment`
is the standard-LP gap experiment on seeded G(n, 1/2) samples that
acceptance criterion 7 runs.
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

sys.path.insert(0, str(Path(__file__).parent))

from essentia.graphs import Graph
from essentia.lab import gen_gnp, measure_gap
from essentia.lp import FractionalSolution, verify_feasible
from essentia.problems import Instance, Problem
from essentia.simplex import PackingSimplex


def random_graph(n, seed, directed=False, p=None):
    rng = random.Random(seed)
    if p is None:
        p = 0.3 if directed else 0.4
    edges = []
    for u in range(n):
        for v in range(n):
            if directed and u != v and rng.random() < p:
                edges.append((u, v))
            elif not directed and u < v and rng.random() < p:
                edges.append((u, v))
    return Graph(n, directed, edges)


def random_instance(problem, n, seed):
    rng = random.Random(seed * 31 + 7)
    g = random_graph(n, rng.randrange(1 << 30), directed=problem.directed)
    terminals = ()
    if problem.uses_terminals:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        terminals = tuple(pairs[: rng.randint(2, min(4, len(pairs)))])
    return Instance(problem, g, terminals)


def random_cograph_edges(vertices, rng):
    """Random P4-free graph on the given vertices via union/join recursion."""
    if len(vertices) <= 1:
        return []
    cut = rng.randint(1, len(vertices) - 1)
    left, right = vertices[:cut], vertices[cut:]
    edges = random_cograph_edges(left, rng) + random_cograph_edges(right, rng)
    if rng.random() < 0.5:
        edges += [(a, b) for a in left for b in right]
    return edges


def random_singleton_instance(problem, n, seed):
    """An instance plus a vertex whose deletion alone kills every obstacle."""
    if n < 3:
        raise ValueError("singleton constructions need n >= 3")
    rng = random.Random(seed * 97 + 13)
    perm = list(range(n))
    rng.shuffle(perm)
    v = perm[0]
    others = perm[1:]

    if problem is Problem.COGRAPH_DELETION:
        edges = random_cograph_edges(others, rng)
        edges += [(v, u) for u in others if rng.random() < 0.5]
        return Instance(problem, Graph(n, False, edges)), v

    if problem is Problem.VERTEX_MULTICUT:
        cut = rng.randint(1, max(1, len(others) - 1))
        groups = [others[:cut], others[cut:]]
        edges = []
        for grp in groups:
            for i, a in enumerate(grp):
                for b in grp[i + 1 :]:
                    if rng.random() < 0.5:
                        edges.append((a, b))
            for a in grp:
                if rng.random() < 0.7:
                    edges.append((v, a))
        pairs = [(a, b) for a in groups[0] for b in groups[1]]
        rng.shuffle(pairs)
        terminals = tuple(pairs[: rng.randint(1, min(4, len(pairs)))]) if pairs else ()
        if not terminals:
            return random_singleton_instance(problem, n, seed + 1)
        return Instance(problem, Graph(n, False, edges), terminals), v

    if problem is Problem.DIRECTED_VERTEX_MULTICUT:
        cut = rng.randint(1, max(1, len(others) - 1))
        side_a, side_b = others[:cut], others[cut:]
        edges = []
        for grp in (side_a, side_b):
            for a in grp:
                for b in grp:
                    if a != b and rng.random() < 0.4:
                        edges.append((a, b))
        for a in side_a:
            if rng.random() < 0.7:
                edges.append((a, v))
        for b in side_b:
            if rng.random() < 0.7:
                edges.append((v, b))
        for b in side_b:  # back arcs cannot create a-to-b routes around v
            for a in side_a:
                if rng.random() < 0.2:
                    edges.append((b, a))
        pairs = [(a, b) for a in side_a for b in side_b]
        rng.shuffle(pairs)
        terminals = tuple(pairs[: rng.randint(1, min(4, len(pairs)))]) if pairs else ()
        if not terminals:
            return random_singleton_instance(problem, n, seed + 1)
        return Instance(problem, Graph(n, True, edges), terminals), v

    raise AssertionError(f"no singleton construction for {problem}")


def engine_snapshot(engine):
    """A `PackingSimplex`'s whole state, copied: its int values first, then its layout.

    The layout names column ids: the id at each nonbasic position, each
    row's basic id, and the slack ids of the vertices.
    """
    values = [engine.obj_den, engine.value_num, *engine.obj, *engine.den, *engine.rhs]
    values += [a for row in engine.tab for a in row]
    layout = (
        [len(row) for row in engine.tab],
        list(engine.cols),
        list(engine.basis),
        dict(engine.slack_col),
        dict(engine.slack_vertex),
    )
    return values, layout, engine.pinned, engine.ncols


def record_pivots(monkeypatch):
    """Log every `PackingSimplex` pivot from here on; returns the log.

    Each entry is (enter, leave, D, d, p, dens): the entering column id,
    the leaving row, the determinant before the pivot, the pivot row's
    denominator (a lift when d != D), the pivot entry p (the new
    determinant) and the denominators of the other rows it rewrites (the
    divisors of those rows).
    """
    log = []
    pivot = PackingSimplex._pivot

    def logged(engine, i, j):
        dens = [engine.den[k] for k, row in enumerate(engine.tab) if row[j] and k != i]
        enter, det, d = engine.cols[j], engine.obj_den, engine.den[i]
        pivot(engine, i, j)
        log.append((enter, i, det, d, engine.obj_den, dens))

    monkeypatch.setattr(PackingSimplex, "_pivot", logged)
    return log


@dataclass(frozen=True)
class GnpGapRow:
    """One seed of the random-graph standard-LP gap experiment."""

    seed: int
    n: int
    fractional: Fraction
    integral: int
    ratio: Optional[Fraction]
    quarters_feasible: bool
    max_p4_free_subset: int  # n - integral: the largest P4-free vertex set


def gnp_gap_experiment(n: int, seeds: Iterable[int]) -> list[GnpGapRow]:
    """Standard-LP gap statistics on seeded G(n, 1/2) samples.

    The asymptotic near-4 lower bound needs graphs far beyond exhaustive
    solving, so this experiment instead reports, per seed, the exact
    integral/fractional ratio, whether the uniform all-quarters assignment
    is feasible, and the size of the largest induced-P4-free vertex set
    (n minus the integral optimum).
    """
    rows = []
    for seed in seeds:
        inst = gen_gnp(n, seed)
        quarters = FractionalSolution(
            tuple([Fraction(1, 4)] * n), Fraction(n, 4)
        )
        feasible = verify_feasible(inst, quarters)
        report = measure_gap(inst, label=f"gnp-{n}-{seed}")
        if report.integral is None:
            raise AssertionError("an unpinned cograph deletion instance always has a solution")
        rows.append(
            GnpGapRow(
                seed=seed,
                n=n,
                fractional=report.fractional,
                integral=report.integral,
                ratio=report.ratio,
                quarters_feasible=feasible,
                max_p4_free_subset=n - report.integral,
            )
        )
    return rows
