"""Seeded instance families for the three benchmark workloads.

Operation i of a workload is built from its own random stream, seeded by the
string "<workload>:<seed>:<i>", so the corpus depends only on the benchmark
seed and never on how many operations a run gets through.  Families take
turns (operation i belongs to family i mod F), which keeps the mix of every
run the same.  Random graphs have a fixed edge count (the G(n, M) model with
M = round(p * number of vertex pairs)): an edge count drawn per instance
would add to the spread between seeds without adding anything to measure.
Sizes are chosen so that the families of a workload take times within a
small factor of each other (0.03-0.3 s per operation): latency quantiles of
a mix whose families differ by an order of magnitude jump between families
from one seed to the next.

Fixed structures (the star and matching-apex families) get a random vertex
labelling, so no two operations of a process share a graph:
`problems.all_induced_p4s` caches per graph, and a repeated graph would hit
a cache that a command-line user never has warm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from essentia.graphs import Graph
from essentia.lab import gen_dfvs_gadget, gen_matching_apex, gen_star_multicut, gen_vc_gadget
from essentia.problems import Instance, Problem


def gnm(rng: random.Random, n: int, p: float, directed: bool) -> Graph:
    """Uniform graph on n vertices with round(p * pairs) edges (arcs)."""
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, directed, sorted(rng.sample(pairs, round(p * len(pairs)))))


def terminal_pairs(rng: random.Random, n: int, count: int) -> tuple[tuple[int, int], ...]:
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    return tuple(rng.sample(pairs, count))


def relabel(rng: random.Random, inst: Instance) -> Instance:
    """The same instance under a random vertex permutation."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    g = inst.graph
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    terms = tuple((perm[s], perm[t]) for s, t in inst.terminals)
    return Instance(inst.problem, Graph(g.n, g.directed, edges), terms)


def _plain(problem: Problem, n: int, p: float, pairs: int = 0) -> Callable[[random.Random], Instance]:
    def build(rng: random.Random) -> Instance:
        g = gnm(rng, n, p, problem.directed)
        return Instance(problem, g, terminal_pairs(rng, n, pairs) if pairs else ())

    return build


def _vc_gadget(base_n: int, p: float) -> Callable[[random.Random], Instance]:
    def build(rng: random.Random) -> Instance:
        base = Instance(Problem.VERTEX_COVER, gnm(rng, base_n, p, False))
        return gen_vc_gadget(base, Fraction(1, 4)).instance

    return build


def _dfvs_gadget(base_n: int, p: float) -> Callable[[random.Random], Instance]:
    def build(rng: random.Random) -> Instance:
        base = Instance(Problem.DFVS, gnm(rng, base_n, p, True))
        return gen_dfvs_gadget(base, Fraction(1)).instance

    return build


def _matching_apex(ms: range) -> Callable[[random.Random], Instance]:
    return lambda rng: relabel(rng, gen_matching_apex(rng.choice(ms)).instance)


def _star(ms: range) -> Callable[[random.Random], Instance]:
    return lambda rng: relabel(rng, gen_star_multicut(rng.choice(ms)).instance)


@dataclass(frozen=True)
class Workload:
    name: str
    exact_only: bool  # True: solve_exact; False: solve_with_detection
    families: tuple[tuple[str, Callable[[random.Random], Instance]], ...]

    def instance(self, seed: int, i: int) -> tuple[str, Instance]:
        """Family name and instance of operation i."""
        family, build = self.families[i % len(self.families)]
        return family, build(random.Random(f"{self.name}:{seed}:{i}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reduce-enum",
            False,
            (
                ("vertex-cover", _plain(Problem.VERTEX_COVER, 16, 0.3)),
                ("cograph", _plain(Problem.COGRAPH_DELETION, 10, 0.5)),
                ("matching-apex", _matching_apex(range(8, 13))),
                ("vc-gadget", _vc_gadget(16, 0.3)),
            ),
        ),
        Workload(
            "reduce-paths",
            False,
            (
                ("dfvs", _plain(Problem.DFVS, 12, 0.2)),
                ("multicut", _plain(Problem.VERTEX_MULTICUT, 16, 0.15, pairs=4)),
                ("directed-multicut", _plain(Problem.DIRECTED_VERTEX_MULTICUT, 16, 0.12, pairs=4)),
                ("dfvs-gadget", _dfvs_gadget(4, 0.5)),
                ("star", _star(range(8, 12))),
            ),
        ),
        Workload(
            "solve-exact",
            True,
            (
                ("vertex-cover", _plain(Problem.VERTEX_COVER, 36, 0.12)),
                ("cograph", _plain(Problem.COGRAPH_DELETION, 16, 0.5)),
                ("dfvs", _plain(Problem.DFVS, 26, 0.1)),
                ("multicut", _plain(Problem.VERTEX_MULTICUT, 40, 0.07, pairs=7)),
                ("directed-multicut", _plain(Problem.DIRECTED_VERTEX_MULTICUT, 45, 0.06, pairs=8)),
            ),
        ),
    )
}
