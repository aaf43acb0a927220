"""Exact rational linear programming for the alignment heuristics.

A small dense two-phase simplex with Bland's rule, plus a best-bound
branch-and-bound wrapper for integer programs.  Problems here are tiny (tens
of variables), so exactness beats sophistication: no tolerances, no presolve.

Pivoting is fraction-free (Edmonds 1967; Bareiss 1968).  The tableau holds
Python ``int``s over one common positive denominator ``d``: the entry it
stands for is ``T[i][j] / d``.  A pivot on ``p = T[r][c]`` leaves row ``r``
as it is and sets every other row, objective row included, to
``(p * T[i][j] - T[i][c] * T[r][j]) // d``; then ``d = p``.  Each such
division is exact, because by Sylvester's identity every entry is a minor of
the integer input.  When ``p < 0`` the whole tableau is negated as well, so
``d`` stays positive and signs read as they would over the rationals.  The
ratio test cross-multiplies.  Values and vertices are built once at the end
as exact ``Fraction``s.

All variables are constrained to be non-negative.  Constraint rows are
``(coefficients, relation, rhs)`` with relation ``"="`` or ``">="`` and
``int`` or ``Fraction`` entries; a row with fractions is scaled to integers
by the common multiple of its denominators.

Programs that share one constraint matrix and objective and differ only in
their right-hand sides can be re-solved warm: :func:`solve_lp` keeps its
last optimal tableau in a :class:`WarmStart` the caller passes, and starts
the next program on the same matrix from that basis.  A warm program has
only ``>=`` rows with integer coefficients and integer right-hand sides of
at most 0, so every slack starts basic and the tableau's slack block is ``d`` times the basis
inverse, objective row included.  The new right-hand-side column is that
block times the new right-hand side, in integers.  The basis stays dual
feasible, since the objective has not changed.  If the column is
non-negative, the basis is optimal at once.  Otherwise the dual simplex
(Lemke 1954) pivots to optimality with Bland's rule (Bland 1977): the
infeasible row whose basic variable has the smallest index leaves, and
ratio ties go to the smallest entering index, so it ends.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

Row = tuple[list, str, object]  # (coefficients, "=" | ">=", rhs)


class BranchDepthExceeded(RuntimeError):
    """Branch-and-bound hit its depth limit without closing the gap."""


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...] | None


def _integral(values: list) -> tuple[list[int], int]:
    """The values times the least common multiple of their denominators."""
    if set(map(type, values)) == {int}:
        return values, 1
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class _Tableau:
    """Dense integer tableau over the common denominator ``d``.

    Rows are basic, the last column is the rhs.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols  # columns that may enter the basis
        self.d = 1

    def pivot(self, r: int, c: int, obj: list[int]) -> None:
        """Pivot on ``p = rows[r][c]``, updating every row and ``obj`` in place."""
        d, prow = self.d, self.rows[r]
        p = prow[c]
        if p < 0:
            # with the pivot row negated, the update below yields the
            # negated tableau over the positive denominator -p
            prow[:] = [-v for v in prow]
            p = -p
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for row in self.rows + [obj]:
            if row is prow:
                continue
            f = row[c]
            if p == d:
                # (p * a - f * b) // d is a - f * b // d: only the columns
                # where the pivot row is non-zero change
                if f:
                    for j, b in nonzero:
                        row[j] -= f * b // d
            elif f:
                row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            else:
                row[:] = [p * a // d for a in row]
        self.d = p
        self.basis[r] = c

    def minimize(self, obj: list[int]) -> str:
        """Drive the objective row to optimality with Bland's rule."""
        basis = self.basis
        while True:
            entering = -1
            for j in range(self.ncols):
                if obj[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best_rhs = best_a = 0
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if leaving < 0:
                        leaving, best_rhs, best_a = i, row[-1], a
                        continue
                    # row[-1] / a against best_rhs / best_a, both a > 0
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving, best_rhs, best_a = i, row[-1], a
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering, obj)

    def dual_minimize(self, obj: list[int]) -> str:
        """Drive the rhs column non-negative with the dual simplex and
        Bland's rule, from a basis whose reduced costs ``obj`` are all
        non-negative."""
        rows, basis = self.rows, self.basis
        while True:
            leaving = -1
            for i, row in enumerate(rows):
                if row[-1] < 0 and (leaving < 0 or basis[i] < basis[leaving]):
                    leaving = i
            if leaving < 0:
                return OPTIMAL
            prow = rows[leaving]
            entering = -1
            for j in range(self.ncols):
                a = prow[j]
                # obj[j] / -a against obj[entering] / -prow[entering], both a < 0
                if a < 0 and (entering < 0 or obj[j] * prow[entering] > obj[entering] * a):
                    entering = j
            if entering < 0:
                return INFEASIBLE
            self.pivot(leaving, entering, obj)


class WarmStart:
    """The last optimal tableau :func:`solve_lp` reached on one constraint
    matrix, which the next program on that matrix starts from.

    It is tied to the objective and coefficient lists it was built from, by
    identity: a caller keeps one holder per matrix and passes the same list
    objects each time.  Any other program is solved cold and re-seeds it.
    """

    __slots__ = ("objective", "coeffs", "scale", "rhs", "tab", "obj")

    def __init__(self):
        self.tab: _Tableau | None = None

    def _seed(self, objective, rows, scale, tab, obj) -> None:
        self.objective, self.coeffs = objective, [c for c, _, _ in rows]
        self.rhs = [-rhs for _, _, rhs in rows]
        self.scale, self.tab, self.obj = scale, tab, obj

    def _resolve(self, objective: list, rows: list[Row]) -> str | None:
        """Re-solve on the stored tableau; None when the program is not on
        its matrix or not in warm form."""
        if self.tab is None or objective is not self.objective or len(rows) != len(self.coeffs):
            return None
        new = []
        for (coeffs, rel, rhs), old in zip(rows, self.coeffs):
            if coeffs is not old or rel != ">=" or type(rhs) is not int or rhs > 0:
                return None
            new.append(-rhs)
        # rhs column = slack block (d times the basis inverse) times the new
        # rhs: the old column plus the block times the change, or the block
        # times the new rhs when fewer of its entries are nonzero
        tab, first = self.tab, self.tab.ncols - len(new)
        column = tab.rows + [self.obj]
        terms = [(first + i, v - u) for i, (v, u) in enumerate(zip(new, self.rhs)) if v != u]
        nonzero = [(first + i, v) for i, v in enumerate(new) if v]
        if len(nonzero) < len(terms):
            terms = nonzero
            for row in column:
                row[-1] = 0
        for j, v in terms:
            for row in column:
                row[-1] += row[j] * v
        self.rhs = new
        return tab.dual_minimize(self.obj)


def _optimum(tab: _Tableau, obj: list[int], n: int, scale: int) -> LpResult:
    d = tab.d
    x = [Fraction(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        if b < n and row[-1]:
            x[b] = Fraction(row[-1], d)
    return LpResult(OPTIMAL, Fraction(-obj[-1], d * scale), tuple(x))


def solve_lp(objective: list, rows: list[Row], warm: WarmStart | None = None) -> LpResult:
    """Minimize ``objective . x`` subject to the rows and ``x >= 0``.

    Returns exact rational optimum and one optimal vertex, an infeasibility
    verdict, or an unboundedness verdict.  With ``warm``, a program on the
    matrix it holds starts from its last optimal basis, and a program in
    warm form (every row ``>=``, with integer coefficients and an integer
    rhs of at most 0) solved cold leaves its optimal tableau there.
    """
    if warm is not None:
        status = warm._resolve(objective, rows)
        if status == OPTIMAL:
            return _optimum(warm.tab, warm.obj, len(objective), warm.scale)
        if status == INFEASIBLE:
            return LpResult(INFEASIBLE, None, None)
    n = len(objective)
    n_slack = n_art = 0
    for coeffs, rel, rhs in rows:
        if len(coeffs) != n:
            raise ValueError("row length does not match objective length")
        if rel == ">=":
            n_slack += 1
            n_art += rhs > 0
        elif rel == "=":
            n_art += 1
        else:
            raise ValueError(f"unsupported relation {rel!r}")

    # Layout: structural vars | slacks (one per >= row) | artificials.  A >=
    # row with rhs <= 0 is flipped so that its slack can start basic:
    # a.x >= b  <=>  -a.x + s = -b with s >= 0.  Every other row gets a
    # non-negative rhs and an artificial; a >= row with rhs > 0 keeps
    # a.x - s = b, since its slack cannot start basic.
    art_base = n + n_slack
    ncols = art_base + n_art
    pad = [0] * (n_slack + n_art)
    rows_out: list[list[int]] = []
    basis: list[int] = []
    fractional = False  # a row was scaled to integers
    scol, acol = n, art_base
    for coeffs, rel, rhs in rows:
        values, den = _integral([*coeffs, rhs])
        fractional |= den != 1
        ge = rel == ">="
        flip = rhs <= 0 if ge else rhs < 0
        if flip:
            values = [-v for v in values]
        row = values[:-1] + pad + values[-1:]
        if ge:
            row[scol] = 1 if flip else -1
        if ge and flip:
            basis.append(scol)
        else:
            row[acol] = 1
            basis.append(acol)
            acol += 1
        scol += ge
        rows_out.append(row)

    tab = _Tableau(rows_out, basis, ncols)

    if n_art:
        # sum of the artificials, in terms of the non-basic columns: minus the
        # sum of their rows, with cost 1 - 1 = 0 on the artificial columns
        art_rows = [row for row, b in zip(rows_out, basis) if b >= art_base]
        phase1 = [-t for t in map(sum, zip(*art_rows))]
        phase1[art_base:ncols] = [0] * n_art
        status = tab.minimize(phase1)
        if status == UNBOUNDED or phase1[-1] < 0:
            return LpResult(INFEASIBLE, None, None)
        # pivot lingering artificials out of the basis, drop redundant rows
        keep: list[int] = []
        for i in range(len(tab.rows)):
            if tab.basis[i] < art_base:
                keep.append(i)
                continue
            pivot_col = -1
            for j in range(art_base):
                if tab.rows[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tab.pivot(i, pivot_col, phase1)
                keep.append(i)
            # else: all-zero structural row, redundant; drop it
        # artificial columns are dead from here on
        tab.rows = [tab.rows[i][:art_base] + tab.rows[i][-1:] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
    tab.ncols = art_base

    # reduced costs of the current basis: d * c - sum of c_b * row
    costs, scale = _integral(list(objective))
    d = tab.d
    obj = [d * c for c in costs] + [0] * (n_slack + 1)
    for i, b in enumerate(tab.basis):
        if b < n and costs[b]:
            f = costs[b]
            obj = [a - f * v for a, v in zip(obj, tab.rows[i])]
    status = tab.minimize(obj)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    if warm is not None and not fractional and n_slack == len(rows) and all(
        type(rhs) is int and rhs <= 0 for _, _, rhs in rows
    ):
        warm._seed(objective, rows, scale, tab, obj)
    return _optimum(tab, obj, n, scale)


def _is_integral(value: Fraction) -> bool:
    return value.denominator == 1


def solve_ilp(
    objective: list,
    rows: list[Row],
    warm: WarmStart | None = None,
    depth_limit: int | None = None,
) -> LpResult:
    """Minimize over non-negative integer vectors by branch and bound.

    Nodes are explored best-bound first; branching splits the first
    fractional coordinate of the node's LP vertex.  The depth limit defaults
    to ten times the variable count and exceeding it is an error rather than
    an approximate answer.  Only the root LP uses ``warm``; every child is
    solved cold.
    """
    n = len(objective)
    limit = depth_limit if depth_limit is not None else 10 * n

    root = solve_lp(objective, rows, warm)
    if root.status == INFEASIBLE:
        return root
    if root.status == UNBOUNDED:
        return root

    best_value: Fraction | None = None
    best_x: tuple[Fraction, ...] | None = None
    counter = 0
    heap: list[tuple[Fraction, int, list[Row], int]] = []

    def consider(result: LpResult, extra: list[Row], depth: int) -> None:
        nonlocal best_value, best_x, counter
        if result.status != OPTIMAL:
            return
        if best_value is not None and result.value >= best_value:
            return
        frac_j = -1
        for j, v in enumerate(result.solution):
            if not _is_integral(v):
                frac_j = j
                break
        if frac_j < 0:
            best_value, best_x = result.value, result.solution
            return
        if depth >= limit:
            raise BranchDepthExceeded(
                f"branch and bound exceeded depth {limit} on {n} variables"
            )
        v = result.solution[frac_j]
        floor_v = v.numerator // v.denominator
        unit_neg = [0] * n
        unit_neg[frac_j] = -1
        unit_pos = [0] * n
        unit_pos[frac_j] = 1
        for extra_row in (
            (unit_neg, ">=", -floor_v),  # x_j <= floor(v)
            (unit_pos, ">=", floor_v + 1),  # x_j >= floor(v) + 1
        ):
            counter += 1
            heapq.heappush(heap, (result.value, counter, extra + [extra_row], depth + 1))

    consider(root, [], 0)
    while heap:
        bound, _, extra, depth = heapq.heappop(heap)
        if best_value is not None and bound >= best_value:
            continue
        consider(solve_lp(objective, rows + extra), extra, depth)

    if best_value is None:
        return LpResult(INFEASIBLE, None, None)
    return LpResult(OPTIMAL, best_value, best_x)
