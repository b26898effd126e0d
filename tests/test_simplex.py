import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from essentia.errors import PinInfeasibleError, PreconditionError
from essentia.lab import gen_gnp, gen_matching_apex
from essentia.simplex import PackingSimplex

from conftest import engine_snapshot, record_pivots
from oracles import DenseFractionSimplex, naive_all_obstacle_sets


def basis_determinant(engine, packing):
    """|det B| of a cold engine's basis, from its 0/1 constraint matrix.

    `packing` lists each packing column's vertices in column order.  Rows
    are the vertices in the order their rows were made, which is the order
    of `slack_col`.  Exact `Fraction` elimination, written without the kernel.
    """
    rows = list(engine.slack_col)
    slack = {c: u for u, c in engine.slack_col.items()}
    members = iter(packing)
    cols = [{slack[c]} if c in slack else set(next(members)) for c in range(engine.ncols)]
    m = [[F(int(u in cols[c])) for c in engine.basis] for u in rows]
    det = F(1)
    for k in range(len(m)):
        pivot = next(r for r in range(k, len(m)) if m[r][k])
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            f = m[r][k] / m[k][k]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return abs(det)


def expand(engine):
    """A compact engine's full tableau: (rows, obj), one numerator per column id.

    The basic column of row k is den[k] in row k and 0 elsewhere; an id
    the engine no longer holds (a slack that `with_pin` dropped) is 0
    everywhere, as the reference's left-behind column is.
    """
    at = {c: j for j, c in enumerate(engine.cols)}
    rows = []
    for k, row in enumerate(engine.tab):
        full = [row[at[c]] if c in at else 0 for c in range(engine.ncols)]
        full[engine.basis[k]] = engine.den[k]
        rows.append(full)
    return rows, [engine.obj[at[c]] if c in at else 0 for c in range(engine.ncols)]


def assert_compact_layout(engine, dropped=None):
    """Positions and basis split the live column ids (all but `dropped`), and every row spans the positions."""
    cols, basis = engine.cols, engine.basis
    assert len(set(cols)) == len(cols) and len(set(basis)) == len(basis)
    assert not set(cols) & set(basis)
    assert set(cols) | set(basis) == set(range(engine.ncols)) - {dropped}
    assert len(engine.obj) == len(cols)
    assert all(len(row) == len(cols) for row in engine.tab)
    assert engine.slack_vertex == {c: u for u, c in engine.slack_col.items()}


def assert_same_tableau(fast, ref):
    """Every entry, rhs and reduced cost of `fast`'s full tableau equals the reference's."""
    assert len(fast.tab) == len(ref.tab) == len(fast.den) == len(fast.rhs)
    assert fast.ncols == ref.ncols
    rows, obj = expand(fast)
    for row, den, rhs, ref_row, ref_rhs in zip(rows, fast.den, fast.rhs, ref.tab, ref.rhs):
        assert den > 0 and all(type(a) is int for a in row)
        assert [F(a, den) for a in row] == ref_row
        assert F(rhs, den) == ref_rhs
    assert [F(a, fast.obj_den) for a in obj] == ref.obj
    assert F(fast.value_num, fast.obj_den) == ref.value


def run_both(n, pinned, batches):
    """Feed both kernels the same add/optimize sequence; compare after each optimize.

    `batches` is a list of constraint lists; each batch is added column by
    column and followed by one optimize.  After each optimize the whole
    tableaux must agree, and the kernel's objective denominator must be the
    basis determinant.  Returns the kernel.
    """
    fast, ref = PackingSimplex().with_pin(pinned), DenseFractionSimplex(pinned)
    packing = []
    for batch in batches:
        for members in batch:
            if set(members) <= {pinned}:
                for engine in (fast, ref):
                    with pytest.raises(PinInfeasibleError):
                        engine.add_constraint(members)
                continue
            fast.add_constraint(members)
            ref.add_constraint(members)
            packing.append(set(members) - {pinned})
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
        assert_compact_layout(fast)
        assert_same_tableau(fast, ref)
        assert fast.obj_den == basis_determinant(fast, packing)
    return fast


def split(pool, rng, most=4):
    """Cut a pool into random consecutive batches (interleaved re-solves)."""
    batches, i = [], 0
    while i < len(pool):
        step = rng.randint(1, most)
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
        assert run_both(length, None, [pool]).objective() == F(length, 2)
        rng = random.Random(length)
        for pin in range(length):
            run_both(length, pin, split(pool, rng))

    def test_all_triples_give_thirds(self):
        pool = [list(t) for t in combinations(range(5), 3)]
        assert run_both(5, None, split(pool, random.Random(0))).objective() == F(5, 3)
        run_both(5, 2, split(pool, random.Random(1)))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matching_apex_obstacles(self, m):
        inst = gen_matching_apex(m).instance
        pool = sorted(sorted(vs) for vs in naive_all_obstacle_sets(inst))
        rng = random.Random(m)
        for pin in [None] + list(range(inst.n)):
            run_both(inst.n, pin, split(pool, rng))

    @pytest.mark.parametrize("n, seed", [(10, 0), (10, 1), (14, 1)])
    def test_bench_size_p4_pools(self, monkeypatch, n, seed):
        # every induced P4 of G(n, 1/2), cold and under every pin, as
        # cograph deletion's LPs grow at the benchmark's sizes: pivot rows
        # are lifted to the determinant, and rows are divided by old ones
        inst = gen_gnp(n, seed)
        pool = sorted(sorted(vs) for vs in naive_all_obstacle_sets(inst))
        rng = random.Random(seed)
        log = record_pivots(monkeypatch)
        for pin in [None, *range(n)]:
            run_both(n, pin, split(pool, rng, most=len(pool) // 3))
        assert any(d != D for _, _, D, d, p, dens in log)
        assert any(1 < e != p for _, _, D, d, p, dens in log for e in dens)
        assert max(p for _, _, D, d, p, dens in log) > 6

    def test_pin_only_constraint_leaves_state_intact(self):
        batches = [[[0, 1], [1]], [[1, 2], [0, 2]]]
        assert run_both(3, 1, batches).objective() == 2


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
    engine = PackingSimplex().with_pin(pinned)
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
        assert_compact_layout(pinned, dropped=top.slack_col.get(v))
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
        assert_compact_layout(pinned, dropped=top.slack_col.get(v))
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
        assert engine_snapshot(copy) == engine_snapshot(top)
        # no row list is shared, so growing or pivoting the copy leaves top alone
        assert not {id(row) for row in copy.tab} & {id(row) for row in top.tab}

    def test_pinned_engine_refuses_a_second_pin(self):
        engine = optimum([[0, 1], [1, 2]], pinned=1)
        with pytest.raises(PreconditionError, match=r"^engine is already pinned to vertex 1$"):
            engine.with_pin(0)


def record_reference_pivots(monkeypatch):
    """Log every `DenseFractionSimplex` pivot from here on as (entering column, leaving row)."""
    log = []
    pivot = DenseFractionSimplex._pivot

    def logged(engine, i, j):
        pivot(engine, i, j)
        log.append((j, i))

    monkeypatch.setattr(DenseFractionSimplex, "_pivot", logged)
    return log


class TestPivotsMatchReference:
    """The compact kernel makes the reference's pivots, in its order, and counts them."""

    @staticmethod
    def assert_same_pivots(log, ref_log, engine):
        assert [(enter, leave) for enter, leave, *_ in log] == ref_log
        assert engine.pivots == len(log)
        log.clear()
        ref_log.clear()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pools_and_every_pin(self, monkeypatch, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        pool = [rng.sample(range(n - 1), rng.randint(2, min(5, n - 1))) for _ in range(rng.randint(1, 16))]
        log, ref_log = record_pivots(monkeypatch), record_reference_pivots(monkeypatch)
        fast, ref = PackingSimplex(), DenseFractionSimplex()
        for batch in split(pool, rng):
            for members in batch:
                fast.add_constraint(members)
                ref.add_constraint(members)
            fast.optimize()
            ref.optimize()
        made = fast.pivots
        self.assert_same_pivots(log, ref_log, fast)
        for v in range(n):
            pinned, ref_pinned = fast.with_pin(v), ref.with_pin(v)
            pinned.optimize()
            ref_pinned.optimize()
            self.assert_same_pivots(log, ref_log, pinned)
            assert_compact_layout(pinned, dropped=fast.slack_col.get(v))
            assert_same_tableau(pinned, ref_pinned)
            assert pinned.covering_solution(n) == ref_pinned.covering_solution(n)
        assert fast.pivots == made

    @pytest.mark.parametrize("m", [3, 5])
    def test_matching_apex_pins(self, monkeypatch, m):
        inst = gen_matching_apex(m).instance
        pool = sorted(sorted(vs) for vs in naive_all_obstacle_sets(inst))
        log, ref_log = record_pivots(monkeypatch), record_reference_pivots(monkeypatch)
        fast, ref = optimum(pool), DenseFractionSimplex()
        for members in pool:
            ref.add_constraint(members)
        ref.optimize()
        self.assert_same_pivots(log, ref_log, fast)
        for v in range(inst.n):
            pinned, ref_pinned = fast.with_pin(v), ref.with_pin(v)
            pinned.optimize()
            ref_pinned.optimize()
            self.assert_same_pivots(log, ref_log, pinned)
            assert_same_tableau(pinned, ref_pinned)
