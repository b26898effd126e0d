import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from essentia.errors import PinInfeasibleError, PreconditionError
from essentia.lab import gen_matching_apex
from essentia.simplex import PackingSimplex

from conftest import engine_snapshot
from oracles import DenseFractionSimplex, naive_all_obstacle_sets


def run_both(n, pinned, batches):
    """Feed both kernels the same add/optimize sequence; compare after each optimize.

    `batches` is a list of constraint lists; each batch is added column by
    column and followed by one optimize.  Returns the last objective.
    """
    fast, ref = PackingSimplex(pinned), DenseFractionSimplex(pinned)
    for batch in batches:
        for members in batch:
            if set(members) <= {pinned}:
                for engine in (fast, ref):
                    with pytest.raises(PinInfeasibleError):
                        engine.add_constraint(members)
                continue
            fast.add_constraint(members)
            ref.add_constraint(members)
        fast.optimize()
        ref.optimize()
        want = ref.covering_solution(n)
        assert fast.covering_solution(n) == want
        # the cutting-plane loop prices these numerators unchecked
        den, nums = fast.covering_numerators(n)
        assert len(nums) == n and all(type(a) is int for a in nums)
        for u, a in enumerate(nums):
            assert 0 <= a <= den
            assert F(a, den) == want[u]
        assert fast.objective() == ref.objective()
        assert fast.basis == ref.basis
    return fast.objective()


def split(pool, rng):
    """Cut a pool into random consecutive batches (interleaved re-solves)."""
    batches, i = [], 0
    while i < len(pool):
        step = rng.randint(1, 4)
        batches.append(pool[i : i + step])
        i += step
    return batches or [[]]


class TestAgainstDenseReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_pools(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        pinned = rng.choice([None] + list(range(n)))
        pool = [rng.sample(range(n), rng.randint(1, min(5, n))) for _ in range(rng.randint(1, 16))]
        run_both(n, pinned, split(pool, rng))

    @pytest.mark.parametrize("length", [3, 5, 7, 9])
    def test_odd_cycles(self, length):
        pool = [[u, (u + 1) % length] for u in range(length)]
        assert run_both(length, None, [pool]) == F(length, 2)
        rng = random.Random(length)
        for pin in range(length):
            run_both(length, pin, split(pool, rng))

    def test_all_triples_give_thirds(self):
        pool = [list(t) for t in combinations(range(5), 3)]
        assert run_both(5, None, split(pool, random.Random(0))) == F(5, 3)
        run_both(5, 2, split(pool, random.Random(1)))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matching_apex_obstacles(self, m):
        inst = gen_matching_apex(m).instance
        pool = sorted(sorted(vs) for vs in naive_all_obstacle_sets(inst))
        rng = random.Random(m)
        for pin in [None] + list(range(inst.n)):
            run_both(inst.n, pin, split(pool, rng))

    def test_pin_only_constraint_leaves_state_intact(self):
        batches = [[[0, 1], [1]], [[1, 2], [0, 2]]]
        assert run_both(3, 1, batches) == 2


def test_kernel_builds_no_fraction_inside():
    engine = PackingSimplex()
    for members in combinations(range(5), 3):
        engine.add_constraint(members)
    engine.optimize()
    values = engine_snapshot(engine)[0]
    assert all(type(v) is int for v in values)
    assert all(d > 0 for d in engine.den) and engine.obj_den > 0
    assert engine.objective() == F(5, 3)


def optimum(pool, pinned=None):
    engine = PackingSimplex(pinned)
    for members in pool:
        engine.add_constraint(members)
    engine.optimize()
    return engine


class TestWithPin:
    """`with_pin(v)` on an unpinned optimum against a cold pinned solve."""

    @staticmethod
    def check(n, pool, v):
        """Pin v on the optimum of `pool`; returns whether v's slack was basic."""
        top = optimum(pool)
        before = engine_snapshot(top)
        basic = v in top.slack_col and top.slack_col[v] in top.basis
        pinned = top.with_pin(v)
        assert engine_snapshot(top) == before  # a new engine; the source is only read
        assert pinned.pinned == v and v not in pinned.slack_col
        pinned.optimize()
        ref = DenseFractionSimplex(v)
        for members in pool:
            ref.add_constraint(members)
        ref.optimize()
        assert pinned.objective() == ref.objective()
        # the optimum may be another vertex of the covering polytope than
        # the cold solve's, so x is checked for feasibility, not equality
        x = pinned.covering_solution(n)
        assert x[v] == 0 and all(0 <= a <= 1 for a in x)
        assert sum(x) == pinned.objective()
        for members in pool:
            assert sum(x[u] for u in members) >= 1
        # later cuts drop v, and the source still does not move
        pinned.add_constraint([v, *range(n)])
        pinned.optimize()
        assert engine_snapshot(top) == before
        return basic

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pools_for_every_vertex(self, seed):
        # sets of at least two vertices, as every obstacle is; the last
        # vertex is in none of them, so it has no row
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        pool = [rng.sample(range(n - 1), rng.randint(2, min(5, n - 1))) for _ in range(rng.randint(1, 16))]
        for v in range(n):
            self.check(n, pool, v)

    def test_basic_slack_row_is_dropped(self):
        # the star's optimum puts 1 on the centre and 0 on every leaf, whose
        # slack stays basic: its row goes and nothing else moves
        pool = [[0, leaf] for leaf in range(1, 5)]
        top = optimum(pool)
        basic = [v for v in range(1, 5) if top.slack_col[v] in top.basis]
        assert basic
        for v in basic:
            assert self.check(5, pool, v)
            pinned = top.with_pin(v)
            row = top.basis.index(top.slack_col[v])
            assert pinned.basis == top.basis[:row] + top.basis[row + 1 :]
            assert pinned.objective() == top.objective()

    def test_vertex_without_a_row_only_becomes_the_pin(self):
        pool = [[0, 1], [1, 2], [0, 2]]
        top = optimum(pool)
        assert engine_snapshot(top.with_pin(3)) == engine_snapshot(top)[:2] + (3, top.ncols)
        assert top.pinned is None
        assert not self.check(4, pool, 3)

    def test_none_gives_a_copy(self):
        top = optimum([list(t) for t in combinations(range(5), 3)])
        copy = top.with_pin(None)
        assert engine_snapshot(copy) == engine_snapshot(top) and copy.tab[0] is not top.tab[0]

    def test_pinned_engine_refuses_a_second_pin(self):
        engine = optimum([[0, 1], [1, 2]], pinned=1)
        with pytest.raises(PreconditionError, match=r"^engine is already pinned to vertex 1$"):
            engine.with_pin(0)
