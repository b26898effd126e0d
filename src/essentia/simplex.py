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

Arithmetic is exact over Python ints: each tableau row keeps the integer
numerators of its nonzero entries over one positive row denominator, and the
objective row keeps dense integer numerators over one shared denominator.
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
from math import gcd
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

    Row k holds the entries `tab[k][c] / den[k]` (absent columns are zero)
    and the right-hand side `rhs[k] / den[k]`; the reduced cost of column c
    is `obj[c] / obj_den` and the objective value `value_num / obj_den`.
    Every denominator is positive.
    """

    def __init__(self, pinned: Optional[int] = None):
        self.pinned = pinned
        self.slack_col: dict[int, int] = {}
        self.tab: list[dict[int, int]] = []
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
        # row/column: existing rows get a zero entry, the new row is a unit.
        col = self.ncols
        self.ncols += 1
        self.obj.append(0)
        self.slack_col[u] = col
        self.tab.append({col: 1})
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
        col = self.ncols
        self.ncols += 1
        for row in self.tab:
            entry = 0
            for c in cols:
                entry += row.get(c, 0)
            if entry:
                row[col] = entry
        obj = self.obj
        reduced = self.obj_den
        for c in cols:
            reduced += obj[c]
        obj.append(reduced)

    def _pivot(self, i: int, j: int) -> None:
        # Dividing row i by its pivot entry p / den[i] cancels den[i]: the
        # pivot row becomes its own numerators over p.
        prow, p, prhs = self.tab[i], self.tab[i][j], self.rhs[i]
        g = gcd(prhs, *prow.values())
        if g != 1:
            prow = {c: a // g for c, a in prow.items()}
            p //= g
            prhs //= g
        self.tab[i], self.den[i], self.rhs[i] = prow, p, prhs
        # Row k with entry t in column j becomes (row·p − t·prow) / (den·p);
        # rows with no entry in column j are unchanged.
        tab, den, rhs = self.tab, self.den, self.rhs
        for k, row in enumerate(tab):
            t = row.get(j)
            if t is None or k == i:
                continue
            new = {c: a * p for c, a in row.items()} if p != 1 else row
            for c, b in prow.items():
                v = new.get(c, 0) - t * b
                if v:
                    new[c] = v
                else:
                    del new[c]
            r = rhs[k] * p - t * prhs
            d = den[k] * p
            if d != 1:
                g = gcd(d, r, *new.values())
                if g != 1:
                    new = {c: a // g for c, a in new.items()}
                    r //= g
                    d //= g
            tab[k], den[k], rhs[k] = new, d, r
        obj = self.obj
        f = obj[j]
        if p != 1:
            obj = [a * p for a in obj]
            self.value_num *= p
            self.obj_den *= p
        for c, b in prow.items():
            obj[c] -= f * b
        self.value_num += f * prhs
        if p != 1:
            g = gcd(self.obj_den, self.value_num, *obj)
            if g != 1:
                obj = [a // g for a in obj]
                self.value_num //= g
                self.obj_den //= g
        self.obj = obj
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
            a = row.get(enter, 0)
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
        again, and later constraints drop v.  A vertex without a row only
        becomes the pin; v = None gives a plain copy.  Raises
        PreconditionError on an engine that is already pinned.
        """
        if self.pinned is not None:
            raise PreconditionError(f"engine is already pinned to vertex {self.pinned}")
        new = PackingSimplex(v)
        new.slack_col = dict(self.slack_col)
        new.tab = [dict(row) for row in self.tab]
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
                a = row.get(col)
                if a is not None:
                    row[col] = -a
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
