import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from essentia.errors import PinInfeasibleError
from essentia.lab import gen_matching_apex
from essentia.simplex import PackingSimplex

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
    values = [engine.obj_den, engine.value_num, *engine.obj, *engine.den, *engine.rhs]
    values += [a for row in engine.tab for a in row.values()]
    assert all(type(v) is int for v in values)
    assert all(d > 0 for d in engine.den) and engine.obj_den > 0
    assert engine.objective() == F(5, 3)
