"""Exact simplex for hitting-set covering LPs.

The LP to solve is  min sum(x_u)  s.t.  sum(x_u for u in S) >= 1 per
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
and the objective row holds D times the reduced costs, then D times the
negated objective value.  Row k holds the entries of d·B^-1 A, then d·B^-1 b
(its right-hand side), for d = den[k], the value D had when row k was last
rewritten (1 for a fresh slack row).  Each such entry is a minor of the
0/1 matrix [A b], b all ones (Cramer's rule), hence an integer.  A pivot
on entry p of the pivot row in D's scale makes p the new determinant, and
every row it rewrites comes out as p times a new entry of B^-1 [A b],
again a minor.  So every `//` in this module divides exactly, and no
common factor is ever searched for.  The right-hand side and the value
end their rows, as in a textbook tableau, so the pivot's one row formula
rewrites them with the entries.

The rows store only the nonbasic columns.  A basic column of B^-1 A is a
unit vector, so in row k's scale the column basic in row k is den[k] there
and 0 in every other row and in the objective row: nothing to store.  A
pivot swaps the entering and the leaving column: the leaving one takes the
entering one's position, and its new entries follow from the same Bareiss
step applied to that known unit column.

Pivoting follows Bland's rule on the column ids, which are handed out in
creation order, so the optimum is exact and cycling is impossible.  The
optimal covering solution is read off the objective row: x_u equals the
negated reduced cost of vertex u's slack column, 0 while that slack is
basic, and `covering_numerators` hands those numerators out over the
objective row's denominator, which is what the cutting-plane loop prices
obstacles in.
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
    and every column gets the next id when it is made (a slack with its
    row, a constraint when it is added); Bland's entering rule uses that
    fixed id order.  The pinned vertex never receives a row (`with_pin`
    drops it), which realises the x_pin = 0 restriction of the covering LP.

    Only nonbasic columns are stored.  `cols[j]` is the id of the column at
    position j, and `basis[k]` the id of row k's basic column, which is
    implied: `den[k]` in row k and 0 in every other row and the objective.
    Row k holds the entries `tab[k][j] / den[k]` at the positions j of
    `cols`, then its right-hand side `tab[k][-1] / den[k]`; the reduced cost
    at position j is `obj[j] / obj_den`, and `obj[-1] / obj_den` is the
    negated objective value.  `obj_den` is the basis determinant D, and
    `den[k]` is the value D had when row k was last rewritten, so every
    denominator is positive and every numerator is a minor of [A b].
    `pivots` counts the pivots this engine has made.
    """

    def __init__(self):
        self.pinned: Optional[int] = None
        self.slack_col: dict[int, int] = {}  # vertex -> id of its slack column
        self.slack_vertex: dict[int, int] = {}  # the inverse map
        self.tab: list[list[int]] = []
        self.den: list[int] = []
        self.obj: list[int] = [0]
        self.obj_den = 1
        self.cols: list[int] = []  # column id at each nonbasic position
        self.basis: list[int] = []  # basic column id of each row
        self.ncols = 0  # ids handed out so far
        self.pivots = 0

    def _new_row(self, u: int) -> None:
        # A fresh vertex appears in no constraint yet, so its new slack
        # stays basic and the inverse-basis block extends by an identity
        # row/column: the new row is 0 at every nonbasic position with
        # right-hand side 1, and the basis determinant does not change.
        col = self.ncols
        self.ncols += 1
        self.slack_col[u] = col
        self.slack_vertex[col] = u
        self.tab.append([0] * len(self.cols) + [1])
        self.den.append(1)
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
        # New packing column in current-basis coordinates: B^-1 a equals the
        # sum of the members' slack columns, since a is their 0/1 indicator.
        # Row numerators share the row's denominator, so they simply add up;
        # a basic member slack adds den[k] to its own row k only.  The new
        # position goes just before each row's right-hand side.
        cols, basis = self.cols, self.basis
        pos, rows = [], []
        for u in members:
            c = self.slack_col[u]
            if c in basis:
                rows.append(basis.index(c))
            else:
                pos.append(cols.index(c))
        tab, den = self.tab, self.den
        for row in tab:
            row.insert(-1, sum(map(row.__getitem__, pos)))
        for k in rows:
            tab[k][-2] += den[k]
        obj = self.obj
        obj.insert(-1, self.obj_den + sum(map(obj.__getitem__, pos)))
        cols.append(self.ncols)
        self.ncols += 1

    def _pivot(self, i: int, j: int) -> None:
        # Lift the pivot row to the current determinant D; its entry p at
        # position j is the new determinant, and the row becomes itself over p.
        tab, den = self.tab, self.den
        d = self.obj_den
        prow = tab[i]
        if den[i] != d:
            e = den[i]
            prow = [a * d // e for a in prow]
        p = prow[j]
        # Row k with entry t at position j becomes (row·p − t·prow) / den[k]
        # over p, right-hand side included, and so does the objective row
        # over D, value included; rows with no entry there are unchanged.
        # The column that leaves the basis takes over position j: it was D in
        # the lifted pivot row and 0 elsewhere, so the same formula gives it
        # −t·D / den[k] in row k, −f in the objective row and D in the pivot row.
        for k, row in enumerate(tab):
            t = row[j]
            if t and k != i:
                e = den[k]
                row = [(a * p - t * b) // e for a, b in zip(row, prow)]
                row[j] = -t * d // e
                tab[k] = row
                den[k] = p
        f = self.obj[j]
        obj = [(a * p - f * b) // d for a, b in zip(self.obj, prow)]
        obj[j] = -f
        self.obj = obj
        self.obj_den = p
        prow[j] = d
        tab[i], den[i] = prow, p
        self.cols[j], self.basis[i] = self.basis[i], self.cols[j]
        self.pivots += 1

    def _leaving_row(self, j: int) -> int:
        """The ratio test's row for the column at position j, or -1 if no entry is positive."""
        # Ratio r/a per row, r the row's right-hand side (its last entry): the
        # row denominator cancels, so rows i and l compare as r_i·a_l against
        # r_l·a_i (a_i, a_l > 0); ties break on the lower basic column id.
        basis = self.basis
        leave = -1
        best_r = best_a = 0
        for i, row in enumerate(self.tab):
            a = row[j]
            if a > 0:
                if leave >= 0:
                    left, right = row[-1] * best_a, best_r * a
                    if left > right or (left == right and basis[i] > basis[leave]):
                        continue
                leave, best_r, best_a = i, row[-1], a
        return leave

    def optimize(self) -> None:
        """Pivot to optimality (Bland's rule: lowest eligible column id)."""
        while True:
            cols = self.cols
            eligible = [c for c, r in zip(cols, self.obj) if r > 0]
            if not eligible:
                return
            enter = cols.index(min(eligible))
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
        column goes with the row, and later constraints drop v.  Negating a
        nonbasic column leaves the basis alone, and the row that goes has a
        unit basic column, so the basis determinant keeps its value and
        every row its exact scale.  The new engine's `pivots` counts that
        entering pivot.  A vertex without a row only becomes the pin; v =
        None gives a plain copy.  Raises PreconditionError on an engine that
        is already pinned.
        """
        if self.pinned is not None:
            raise PreconditionError(f"engine is already pinned to vertex {self.pinned}")
        new = PackingSimplex()
        new.pinned = v
        new.slack_col = dict(self.slack_col)
        new.slack_vertex = dict(self.slack_vertex)
        new.tab = [row[:] for row in self.tab]
        new.den = list(self.den)
        new.obj = list(self.obj)
        new.obj_den = self.obj_den
        new.cols = list(self.cols)
        new.basis = list(self.basis)
        new.ncols = self.ncols
        col = new.slack_col.pop(v, None)
        if col is None:
            return new
        del new.slack_vertex[col]
        if col in new.basis:
            i = new.basis.index(col)
        else:
            j = new.cols.index(col)
            for row in new.tab:
                row[j] = -row[j]
            new.obj[j] = -new.obj[j]
            i = new._leaving_row(j)
            if i < 0:
                # the negated slack column has the same nonzeros as v's
                # unpinned row, and every obstacle has >= 2 vertices
                raise AssertionError("pinned packing LP reported unbounded")
            new._pivot(i, j)
        del new.tab[i], new.den[i], new.basis[i]
        return new

    def covering_numerators(self, n: int) -> tuple[int, list[int]]:
        """The optimal covering solution as (den, nums): x_u == nums[u] / den.

        den is the objective row's denominator, positive but not necessarily
        the least; vertices without a row (the pinned one, and those in no
        constraint) and vertices whose slack is basic get 0.  At an
        optimum 0 <= nums[u] <= den.
        """
        nums = [0] * n
        vertex = self.slack_vertex
        for c, r in zip(self.cols, self.obj):
            if c in vertex:
                nums[vertex[c]] = -r
        return self.obj_den, nums

    def covering_solution(self, n: int) -> VertexWeights:
        """Optimal covering LP solution over n vertices (duals of the packing)."""
        den, nums = self.covering_numerators(n)
        return tuple(Fraction(a, den) if a else ZERO for a in nums)

    def objective(self) -> Fraction:
        return Fraction(-self.obj[-1], self.obj_den)
