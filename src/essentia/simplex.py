"""Exact simplex for hitting-set covering LPs.

The LP to solve is  min sum(x_u)  s.t.  sum(x_u for u in S) >= 1 per pooled
constraint set S, 0 <= x <= 1, optionally x_pin = 0.  Because the constraint
matrix is 0/1, any optimal solution automatically satisfies x <= 1 (capping a
variable at 1 keeps every covering constraint satisfied while lowering the
objective), so it suffices to solve the unboxed covering LP.  We work on its
dual, the packing LP  max sum(y_S)  s.t.  sum(y_S for S containing u) <= 1
per vertex u, y >= 0, whose origin is feasible: no artificial variables or
phase-one are ever needed, and adding a cut to the covering LP is just a new
column here, so the current basis warm-starts every re-solve.  Pinning
x_v = 0 deletes v's row, which only relaxes the packing LP, so `with_pin`
starts a pinned LP from an unpinned optimal tableau with no dual phase.

Arithmetic is exact over Python ints by integer-preserving (Bareiss)
pivoting on dense rows.  `obj_den` is D = |det B| of the current basis B,
and the objective row holds D times the reduced costs.  Row k holds the
entries of d·B^-1 A for d = den[k], the value D had when row k was last
rewritten (1 for a fresh slack row).  Each such entry is a minor of the 0/1
constraint matrix (Cramer's rule), hence an integer.  A pivot on entry p of
the pivot row in D's scale makes p the new determinant, and every row it
rewrites comes out as p times a new entry of B^-1 A, again a minor.  So
every `//` in this module divides exactly, and no common factor is ever
searched for.

Pivoting follows Bland's rule, so the optimum is exact and cycling is
impossible.  The optimal covering solution is read off the objective row:
x_u equals the negated reduced cost of vertex u's slack column, and
`covering_numerators` hands those numerators out over the objective row's
denominator, which is what the cutting-plane loop prices obstacles in.
`fractions.Fraction` values are built only at the boundary, by
`covering_solution` and `objective`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .errors import PinInfeasibleError, PreconditionError
from .graphs import ZERO, VertexWeights


class PackingSimplex:
    """Growable exact-arithmetic simplex over the packing dual.

    Vertex rows are created lazily when a constraint first mentions a vertex,
    and constraint columns are appended in insertion order; Bland's entering
    rule uses that fixed column order.  The pinned vertex never receives a
    row (`with_pin` drops it), which realises the x_pin = 0 restriction of
    the covering LP.

    Row k is a dense list holding the entries `tab[k][c] / den[k]` and the
    right-hand side `rhs[k] / den[k]`; the reduced cost of column c is
    `obj[c] / obj_den` and the objective value `value_num / obj_den`.
    `obj_den` is the basis determinant D, and `den[k]` is the value D had
    when row k was last rewritten, so every denominator is positive and
    every numerator is a minor of the constraint matrix.
    """

    def __init__(self, pinned: Optional[int] = None):
        self.pinned = pinned
        self.slack_col: dict[int, int] = {}
        self.tab: list[list[int]] = []
        self.den: list[int] = []
        self.rhs: list[int] = []
        self.obj: list[int] = []
        self.obj_den = 1
        self.value_num = 0
        self.basis: list[int] = []  # basic column of each row
        self.ncols = 0

    def _new_row(self, u: int) -> None:
        # A fresh vertex appears in no pooled constraint, so its new slack
        # stays basic and the inverse-basis block extends by an identity
        # row/column: existing rows get a zero entry, the new row is a unit,
        # and the basis determinant does not change.
        col = self.ncols
        self.ncols += 1
        for row in self.tab:
            row.append(0)
        self.obj.append(0)
        self.slack_col[u] = col
        self.tab.append([0] * col + [1])
        self.den.append(1)
        self.rhs.append(1)
        self.basis.append(col)

    def add_constraint(self, vertices: Iterable[int]) -> None:
        """Add the covering constraint sum(x_u for u in vertices) >= 1."""
        members = sorted(set(vertices) - {self.pinned})
        if not members:
            raise PinInfeasibleError(
                "constraint consists of the pinned vertex alone"
            )
        for u in members:
            if u not in self.slack_col:
                self._new_row(u)
        cols = [self.slack_col[u] for u in members]
        # New packing column in current-basis coordinates: B^-1 a equals the
        # sum of the members' slack columns, since a is their 0/1 indicator.
        # Row numerators share the row's denominator, so they simply add up.
        self.ncols += 1
        for row in self.tab:
            row.append(sum(map(row.__getitem__, cols)))
        obj = self.obj
        obj.append(self.obj_den + sum(map(obj.__getitem__, cols)))

    def _pivot(self, i: int, j: int) -> None:
        # Lift the pivot row to the current determinant D; its entry p in
        # column j is the new determinant, and the row becomes itself over p.
        tab, den, rhs = self.tab, self.den, self.rhs
        d = self.obj_den
        prow, prhs = tab[i], rhs[i]
        if den[i] != d:
            e = den[i]
            prow = [a * d // e for a in prow]
            prhs = prhs * d // e
        p = prow[j]
        tab[i], den[i], rhs[i] = prow, p, prhs
        # Row k with entry t in column j becomes (row·p − t·prow) / den[k]
        # over p; rows with no entry in column j are unchanged.
        for k, row in enumerate(tab):
            t = row[j]
            if t and k != i:
                e = den[k]
                tab[k] = [(a * p - t * b) // e for a, b in zip(row, prow)]
                rhs[k] = (rhs[k] * p - t * prhs) // e
                den[k] = p
        f = self.obj[j]
        self.obj = [(a * p - f * b) // d for a, b in zip(self.obj, prow)]
        self.value_num = (self.value_num * p + f * prhs) // d
        self.obj_den = p
        self.basis[i] = j

    def _leaving_row(self, enter: int) -> int:
        """The ratio test's row for column `enter`, or -1 if no entry is positive."""
        # Ratio rhs/a per row: the row denominator cancels, so rows i and l
        # compare as rhs_i·a_l against rhs_l·a_i (a_i, a_l > 0); ties break
        # on the lower basic column.
        rhs, basis = self.rhs, self.basis
        leave = -1
        best_r = best_a = 0
        for i, row in enumerate(self.tab):
            a = row[enter]
            if a > 0:
                if leave >= 0:
                    lhs, rhs_l = rhs[i] * best_a, best_r * a
                    if lhs > rhs_l or (lhs == rhs_l and basis[i] > basis[leave]):
                        continue
                leave, best_r, best_a = i, rhs[i], a
        return leave

    def optimize(self) -> None:
        """Pivot to optimality (Bland's rule: lowest eligible index)."""
        while True:
            enter = next((j for j, r in enumerate(self.obj) if r > 0), None)
            if enter is None:
                return
            leave = self._leaving_row(enter)
            if leave < 0:
                # each packing column has a +1 row at optimum-relevant bases;
                # the LP is bounded, so this cannot happen
                raise AssertionError("packing LP reported unbounded")
            self._pivot(leave, enter)

    def with_pin(self, v: Optional[int]) -> PackingSimplex:
        """A copy of this engine with x_v = 0 added; `self` is left as it was.

        Pinning x_v = 0 deletes v's row from the packing LP.  Deleting a row
        only relaxes a packing LP, so the current basis stays primal feasible
        and `optimize` goes on from it: no dual phase is needed.  If v's
        slack is basic (x_v = 0 here), its row simply goes.  Otherwise the
        slack becomes free: its column is negated, it enters by the ratio
        test, and the row it became basic in goes.  Either way the slack's
        column is left all zero with reduced cost 0, so it never enters
        again, and later constraints drop v.  Negating a nonbasic column
        leaves the basis alone, and the row that goes has a unit basic
        column, so the basis determinant keeps its value and every row its
        exact scale.  A vertex without a row only becomes the pin; v = None
        gives a plain copy.  Raises PreconditionError on an engine that is
        already pinned.
        """
        if self.pinned is not None:
            raise PreconditionError(f"engine is already pinned to vertex {self.pinned}")
        new = PackingSimplex(v)
        new.slack_col = dict(self.slack_col)
        new.tab = [row[:] for row in self.tab]
        new.den = list(self.den)
        new.rhs = list(self.rhs)
        new.obj = list(self.obj)
        new.obj_den = self.obj_den
        new.value_num = self.value_num
        new.basis = list(self.basis)
        new.ncols = self.ncols
        col = new.slack_col.pop(v, None)
        if col is None:
            return new
        if col in new.basis:
            i = new.basis.index(col)
        else:
            for row in new.tab:
                row[col] = -row[col]
            new.obj[col] = -new.obj[col]
            i = new._leaving_row(col)
            if i < 0:
                # the negated slack column has the same nonzeros as v's
                # unpinned row, and every obstacle has >= 2 vertices
                raise AssertionError("pinned packing LP reported unbounded")
            new._pivot(i, col)
        del new.tab[i], new.den[i], new.rhs[i], new.basis[i]
        return new

    def covering_numerators(self, n: int) -> tuple[int, list[int]]:
        """The optimal covering solution as (den, nums): x_u == nums[u] / den.

        den is the objective row's denominator, positive but not necessarily
        the least; vertices without a row (the pinned one, and those in no
        pooled constraint) get 0.  At an optimum 0 <= nums[u] <= den.
        """
        nums = [0] * n
        obj = self.obj
        for u, c in self.slack_col.items():
            nums[u] = -obj[c]
        return self.obj_den, nums

    def covering_solution(self, n: int) -> VertexWeights:
        """Optimal covering LP solution over n vertices (duals of the packing)."""
        den, nums = self.covering_numerators(n)
        return tuple(Fraction(a, den) if a else ZERO for a in nums)

    def objective(self) -> Fraction:
        return Fraction(self.value_num, self.obj_den)
