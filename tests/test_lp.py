import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from essentia.errors import InputError, IterationCapError, PinInfeasibleError, PreconditionError
from essentia.exact import opt_value
from essentia import lp
from essentia.graphs import Graph
from essentia.lab import gen_gnp, gen_matching_apex, gen_star_multicut
from essentia.lp import FractionalSolution, solve, verify_feasible
from essentia.problems import Instance, Problem
from essentia.simplex import PackingSimplex

from conftest import engine_snapshot, gnp_gap_experiment, random_instance
from oracles import (
    fraction_cutting_planes,
    fraction_violated_obstacle,
    float_lp_value,
    naive_all_obstacle_sets,
    solve_restricted,
)


class TestSolveRestricted:
    def test_single_pair_needs_unit_mass(self):
        assert solve_restricted([(0, 1)], 2).value == 1

    def test_pin_forces_the_other_endpoint(self):
        sol = solve_restricted([(0, 1)], 2, pinned=0)
        assert sol.weights == (F(0), F(1)) and sol.value == 1

    def test_triangle_is_half_integral(self):
        pool = [(0, 1), (1, 2), (0, 2)]
        sol = solve_restricted(pool, 3)
        assert sol.value == F(3, 2)

    def test_empty_pool_is_all_zero(self):
        sol = solve_restricted([], 4)
        assert sol.value == 0 and sol.weights == (F(0),) * 4

    def test_pin_only_constraint_is_infeasible(self):
        with pytest.raises(PinInfeasibleError):
            solve_restricted([[1]], 3, pinned=1)

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_pooled_vertex_out_of_range_raises(self, vertex):
        with pytest.raises(InputError, match=rf"^pooled constraint vertex {vertex} out of range \(n=3\)$"):
            solve_restricted([[0, vertex]], 3)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_float_lp_on_random_pools(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        pool = []
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(2, min(4, n))
            pool.append(frozenset(rng.sample(range(n), size)))
        pinned = rng.choice([None] + list(range(n)))
        if pinned is not None and any(s <= {pinned} for s in pool):
            return
        sol = solve_restricted(sorted(pool, key=sorted), n, pinned=pinned)
        want = float_lp_value(pool, n, pinned)
        assert abs(float(sol.value) - want) < 1e-7
        # dual-derived solution must cover the pool
        for s in pool:
            assert sum((sol.weights[u] for u in s), F(0)) >= 1


class TestSolve:
    @pytest.mark.parametrize("m", [2, 4, 6, 9])
    def test_star_pinned_center_value(self, m):
        inst = gen_star_multicut(m).instance
        sol = solve(inst, 0)
        assert sol.value == F(m, 2)
        assert sol.weights[0] == 0

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matching_apex_pinned_value(self, m):
        inst = gen_matching_apex(m).instance
        sol = solve(inst, 0)
        assert sol.value == F(m, 2)

    def test_no_obstacles_all_zero(self):
        inst = Instance(Problem.VERTEX_COVER, Graph(5, False, []))
        sol = solve(inst)
        assert sol.value == 0 and set(sol.weights) == {F(0)}

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("seed", range(4))
    def test_final_solution_certified_by_full_enumeration(self, problem, seed):
        inst = random_instance(problem, 6, 70 + seed)
        sol = solve(inst)
        full_pool = sorted(naive_all_obstacle_sets(inst), key=sorted)
        reference = solve_restricted(full_pool, inst.n) if full_pool else None
        if reference is not None:
            assert sol.value == reference.value
            assert abs(float(sol.value) - float_lp_value(set(full_pool), inst.n)) < 1e-7
        else:
            assert sol.value == 0
        assert verify_feasible(inst, sol)

    @pytest.mark.parametrize("seed", range(6))
    def test_weak_duality_against_integral_optimum(self, seed):
        rng = random.Random(seed)
        problem = rng.choice(list(Problem))
        inst = random_instance(problem, 8, 99 + seed)
        assert solve(inst).value <= opt_value(inst)

    def test_pool_value_monotone_under_growth(self):
        inst = random_instance(Problem.VERTEX_COVER, 7, 123)
        pool = solve(inst).added
        values = [solve_restricted(pool[:i], inst.n).value for i in range(len(pool) + 1)]
        assert values == sorted(values)

    def test_iteration_cap_raises(self, monkeypatch):
        # an oracle that never certifies: the loop stops after 10 * n^2 cuts
        inst = gen_star_multicut(2).instance
        calls = []

        def stuck_oracle(inst, cost, below):
            calls.append(below)
            return 0, (1, 2)

        monkeypatch.setattr(lp, "cheapest_obstacle", stuck_oracle)
        with pytest.raises(IterationCapError, match=r"^no convergence within 90 cuts \(n=3\)$"):
            solve(inst)
        assert len(calls) == 10 * inst.n**2 + 1

    def test_pinned_weight_invariant_raises(self, monkeypatch):
        # the kernel never gives the pin a row, so its numerator is 0; a
        # kernel that broke that would stop the loop before the oracle runs
        inst = gen_star_multicut(3).instance
        monkeypatch.setattr(PackingSimplex, "covering_numerators", lambda self, n: (2, [1] * n))
        monkeypatch.setattr(lp, "cheapest_obstacle", None)
        with pytest.raises(PreconditionError, match=r"^pinned vertex 0 must have weight 0$"):
            solve(inst, 0)

    def test_cograph_all_quarters_always_feasible(self):
        for seed in range(5):
            inst = random_instance(Problem.COGRAPH_DELETION, 8, 31 + seed)
            quarters = FractionalSolution((F(1, 4),) * 8, F(2))
            assert verify_feasible(inst, quarters)


class TestVerifyFeasible:
    def test_star_half_leaves(self):
        inst = gen_star_multicut(6).instance
        sol = FractionalSolution(tuple([F(0)] + [F(1, 2)] * 6), F(3))
        assert verify_feasible(inst, sol, 0)

    def test_all_zero_fails_on_p4(self):
        inst = Instance(Problem.COGRAPH_DELETION, Graph(4, False, [(0, 1), (1, 2), (2, 3)]))
        sol = FractionalSolution((F(0),) * 4, F(0))
        assert not verify_feasible(inst, sol)

    def test_all_ones_ok_without_pin(self):
        inst = random_instance(Problem.DFVS, 6, 8)
        sol = FractionalSolution((F(1),) * 6, F(6))
        assert verify_feasible(inst, sol)

    def test_pin_violation_detected(self):
        inst = gen_star_multicut(3).instance
        sol = FractionalSolution((F(1),) * 4, F(4))
        assert not verify_feasible(inst, sol, 0)

    def test_int_entries_are_audited_like_fractions(self):
        # ints are exact rationals to FractionalSolution and to the oracle alike
        inst = Instance(Problem.VERTEX_COVER, Graph(2, False, [(0, 1)]))
        assert verify_feasible(inst, FractionalSolution((1, 0), F(1)))
        assert not verify_feasible(inst, FractionalSolution((1, 0), F(1)), 0)
        assert not verify_feasible(inst, FractionalSolution((0, 0), F(0)))

    def test_wrong_length_fails(self):
        inst = gen_star_multicut(3).instance
        assert not verify_feasible(inst, FractionalSolution((F(1),) * 3, F(3)))

    @pytest.mark.parametrize("pin", [-1, 4])
    def test_pin_out_of_range_raises(self, pin):
        inst = gen_star_multicut(3).instance
        sol = FractionalSolution((F(1),) * 4, F(4))
        with pytest.raises(InputError, match=rf"^pinned vertex {pin} out of range \(n=4\)$"):
            verify_feasible(inst, sol, pin)
        with pytest.raises(InputError, match=rf"^pinned vertex {pin} out of range \(n=4\)$"):
            solve(inst, pin)

    @pytest.mark.parametrize("pin", [1.5, "1", True, F(1)])
    def test_pin_of_another_type_raises(self, pin):
        # a bool is an int subclass, but True is not vertex 1
        inst = gen_star_multicut(3).instance
        sol = FractionalSolution((F(1),) * 4, F(4))
        message = rf"^pinned vertex must be an int, got {re.escape(repr(pin))}$"
        with pytest.raises(InputError, match=message):
            verify_feasible(inst, sol, pin)
        with pytest.raises(InputError, match=message):
            solve(inst, pin)


class TestPoolIsOnlyRead:
    """`solve` only reads its start, and returns what it adds as the solution's `added`.

    The start is the unpinned LP's solution, the one pool every pinned LP
    begins from: its optimal tableau, copied with the pinned vertex's row
    dropped.
    """

    @pytest.mark.parametrize("problem", list(Problem))
    def test_unpinned_pinned_and_shared_routes(self, problem):
        inst = random_instance(problem, 7, 41)
        top = solve(inst)
        assert top == solve(inst, None, None) == fraction_cutting_planes(inst)
        assert top.instance is inst and top.tableau.pinned is None
        before = engine_snapshot(top.tableau)
        again = solve(inst, None, start=top)
        assert again == top and again.added == ()  # its own optimum: no cut to add
        for v in range(inst.n):
            cold = solve(inst, v)
            assert cold == fraction_cutting_planes(inst, v)
            warm = solve(inst, v, start=top)
            assert engine_snapshot(top.tableau) == before
            assert warm.value == cold.value and verify_feasible(inst, warm, v)
            assert warm.tableau.pinned == v and warm.tableau is not top.tableau

    def test_added_holds_only_oracle_cuts(self, monkeypatch):
        # every added witness is one oracle call's cut, in call order,
        # whatever the LP starts from: solve adds no seeds of its own
        oracle, answers = lp.cheapest_obstacle, []

        def recording_oracle(*args, **kwargs):
            answers.append(oracle(*args, **kwargs))
            return answers[-1]

        monkeypatch.setattr(lp, "cheapest_obstacle", recording_oracle)
        for problem in Problem:
            inst = random_instance(problem, 7, 43)
            top = solve(inst)
            for v in range(inst.n):
                for start in (None, top):
                    answers.clear()
                    sol = solve(inst, v, start=start)
                    assert answers[-1] is None  # the last call certified the optimum
                    assert sol.added == tuple(found[1] for found in answers[:-1])
                    assert sol.value == fraction_cutting_planes(inst, v).value

    def test_added_takes_no_part_in_eq_or_repr(self):
        inst = gen_star_multicut(4).instance
        sol = solve(inst)
        assert sol.added and sol.instance is inst and sol.tableau is not None
        bare = FractionalSolution(sol.weights, sol.value)
        assert sol == bare and hash(sol) == hash(bare) and repr(sol) == repr(bare)


class TestBadStart:
    """A start must be an unpinned solution from `solve` on an equal instance."""

    def test_pinned_start_raises(self):
        inst = gen_star_multicut(4).instance
        pinned = solve(inst, 1)
        with pytest.raises(InputError, match=r"^start is an LP pinned at vertex 1, not the unpinned LP$"):
            solve(inst, 0, start=pinned)

    def test_start_without_a_tableau_raises(self):
        # built by hand like gnp_gap_experiment's quarters, or stripped of
        # its tableau: nothing to start from
        inst = gen_gnp(7, 0)
        quarters = FractionalSolution((F(1, 4),) * 7, F(7, 4))
        with pytest.raises(InputError, match=r"^start carries no tableau: pass the result of solve\(inst\)$"):
            solve(inst, 0, start=quarters)
        top = solve(inst)
        with pytest.raises(InputError, match=r"^start carries no tableau"):
            solve(inst, 0, start=FractionalSolution(top.weights, top.value, top.added, inst))

    def test_start_from_an_unequal_instance_raises(self):
        inst = gen_star_multicut(4).instance
        other = gen_star_multicut(5).instance
        same_n = Instance(inst.problem, inst.graph, inst.terminals[:-1])
        for foreign in (other, same_n):
            with pytest.raises(InputError, match=r"^start was solved on another instance$"):
                solve(inst, 0, start=solve(foreign))
        # an equal instance built anew is accepted
        twin = Instance(inst.problem, inst.graph, inst.terminals)
        assert solve(inst, 0, start=solve(twin)).value == solve(inst, 0).value


class TestFractionalSolutionInvariants:
    def test_value_must_match_total(self):
        with pytest.raises(InputError):
            FractionalSolution((F(1, 2), F(1, 2)), F(2))

    def test_box_enforced(self):
        with pytest.raises(InputError):
            FractionalSolution((F(3, 2), F(0)), F(3, 2))

    def test_mixed_denominators_total_exactly(self):
        sol = FractionalSolution((F(1, 2), F(1, 3), F(1, 6), F(0), F(5, 7)), F(12, 7))
        assert sol.value == F(12, 7)
        with pytest.raises(InputError, match=r"^solution value 5/3 != weight total 12/7$"):
            FractionalSolution((F(1, 2), F(1, 3), F(1, 6), F(0), F(5, 7)), F(5, 3))

    def test_weights_are_stored_as_a_tuple(self):
        w = (F(1, 2), F(1, 2), 0)
        assert FractionalSolution(w, 1).weights is w
        assert FractionalSolution(iter(w), 1).weights == w
        assert FractionalSolution(list(w), 1).weights == w

    @pytest.mark.parametrize("weights", [None, 5], ids=["None", "int"])
    def test_non_iterable_weights_are_refused(self, weights):
        with pytest.raises(InputError, match=rf"^weight vector must be an iterable, got {weights!r}$"):
            FractionalSolution(weights, 0)

    @pytest.mark.parametrize(
        "weights, value", [((1, 1, 0), 2.0), ((1, 0, 0), True)], ids=["float", "bool"]
    )
    def test_value_must_be_an_exact_rational(self, weights, value):
        # the total would compare equal to either, but neither is stored
        with pytest.raises(InputError, match=rf"^solution value is not an exact rational: {value!r}$"):
            FractionalSolution(weights, value)

    def test_int_and_fraction_subclass_entries_pass(self):
        class Sub(F):
            pass

        FractionalSolution((1, 0, F(1, 2)), F(3, 2))
        FractionalSolution((Sub(1, 3), Sub(2, 3), 1, 1), 3)
        with pytest.raises(InputError, match=r"^solution value 2 != weight total 1$"):
            FractionalSolution((Sub(1, 3), Sub(2, 3), 0), F(2))
        with pytest.raises(InputError, match=r"^weight of vertex 1 out of \[0, 1\]: 2$"):
            FractionalSolution((0, 2, Sub(1, 2)), F(5, 2))

    def test_first_out_of_range_vertex_is_named(self):
        with pytest.raises(InputError, match=r"^weight of vertex 1 out of \[0, 1\]: -1/4$"):
            FractionalSolution((F(1, 2), F(-1, 4), F(5, 4), F(1, 2)), F(2))

    def test_wrong_total_fires_before_the_range(self):
        with pytest.raises(InputError, match=r"^solution value 0 != weight total 3/2$"):
            FractionalSolution((F(3, 2), F(0)), F(0))
        with pytest.raises(InputError, match=r"^solution value 1 != weight total 1/4$"):
            FractionalSolution((F(1, 2), F(-1, 4)), F(1))

    def test_float_entry_is_not_an_exact_rational(self):
        with pytest.raises(InputError, match=r"^weight of vertex 1 is not an exact rational: 0.5$"):
            FractionalSolution((F(1, 2), 0.5), F(1))

    def test_bool_entry_is_not_an_exact_rational(self):
        # the package's "never a bool" rule: True is not the weight 1
        with pytest.raises(InputError, match=r"^weight of vertex 0 is not an exact rational: True$"):
            FractionalSolution((True, False, False, False), 1)
        with pytest.raises(InputError, match=r"^weight of vertex 1 is not an exact rational: False$"):
            FractionalSolution((F(1), False), F(1))

    def test_gap_experiment_quarters(self):
        # gnp_gap_experiment builds the all-quarters solution itself
        rows = gnp_gap_experiment(7, range(3))
        for row in rows:
            inst = gen_gnp(7, row.seed)
            quarters = (F(1, 4),) * 7
            assert row.quarters_feasible == (fraction_violated_obstacle(inst, quarters) is None)


@st.composite
def lp_runs(draw):
    """An instance and the pins of the LPs solved in order.

    Routes: one unpinned LP; one pinned LP from nothing; or detection's
    route, the unpinned LP followed by pinned LPs that each start from its
    optimal tableau.
    """
    problem = draw(st.sampled_from(list(Problem)))
    n = draw(st.integers(3, 9))
    inst = random_instance(problem, n, draw(st.integers(0, 10**6)))
    route = draw(st.sampled_from(["unpinned", "pinned", "unpinned-start"]))
    if route == "unpinned":
        pins = [None]
    elif route == "pinned":
        pins = [draw(st.integers(0, n - 1))]
    else:
        pins = [None] + draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return inst, pins


class TestLoopMatchesFractionReference:
    """`solve` prices the kernel's numerators; the reference goes through `Fraction`s."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(lp_runs())
    def test_same_cuts_in_the_same_order_and_same_solution(self, case):
        # from nothing, both loops take the same pivots and cuts; from the
        # unpinned tableau, the pinned LP reaches the same value, maybe at
        # another optimal vertex, by its own cuts
        inst, pins = case
        start = None
        for v in pins:
            want = fraction_cutting_planes(inst, v)
            got = solve(inst, v, start=start)
            if start is None:
                assert got.added == want.added
                assert got.weights == want.weights and got.value == want.value
            else:
                assert got.value == want.value and verify_feasible(inst, got, v)
            if v is None:
                start = got
