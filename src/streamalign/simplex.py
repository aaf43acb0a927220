"""Exact rational linear programming for the flow programs of the heuristic.

Every program has one form: minimize ``c . x`` subject to ``A x >= b`` and
``x >= 0``, with integer ``c``, ``A`` and ``b``.  The programs of one matrix
differ only in ``b``, and share one :class:`WarmStart`, which holds the
last optimal tableau on that matrix.  Programs are tiny (tens of
variables), so exactness beats sophistication: no tolerances, no presolve.

Pivoting is fraction-free (Edmonds 1967; Bareiss 1968).  The tableau holds
Python ``int``s over one common positive denominator ``d``: the entry it
stands for is ``T[i][j] / d``.  A pivot on ``p = T[r][c]`` leaves row ``r``
as it is and sets every other row, objective row included, to
``(p * T[i][j] - T[i][c] * T[r][j]) // d``; then ``d = p``.  Each such
division is exact, because by Sylvester's identity every entry is a minor of
the integer input.  When ``p < 0`` the whole tableau is negated as well, so
``d`` stays positive and signs read as they would over the rationals.  The
ratio test cross-multiplies.  The value and the vertex are read off once at
the end, each coordinate an ``int`` when ``d`` divides it and a
``Fraction`` only when it does not.

Row ``a . x >= b`` is held as ``-a . x + s = -b``, with its slack ``s >= 0``.
A holder's first program has ``b <= 0``, so every slack starts basic at a
non-negative value, and the primal simplex with Bland's rule (Bland 1977)
pivots from there to an optimum.  The tableau's slack block is then ``d``
times the basis inverse, objective row included.  Every later program on
the holder, whatever the sign of its ``b``, starts from the last optimal
tableau: its right-hand-side column is the slack block times the new
``-b``, in integers.  The basis stays dual feasible, since the objective has
not changed.  If the column is non-negative, the basis is optimal at once.
Otherwise the dual simplex (Lemke 1954) pivots to optimality with Bland's
rule: the infeasible row whose basic variable has the smallest index leaves,
and ratio ties go to the smallest entering index, so it ends.

Integer programs are solved by best-bound branch and bound (Land and Doig
1960), which starts only when the root's vertex is fractional.  A child
copies its parent's optimal tableau and adds one row, ``x_j <= floor(v)`` or
``x_j >= ceil(v)``, with its new slack basic, written through the row in
which ``x_j`` is basic.  The objective row does not change, so the child is
dual feasible and the same dual simplex solves it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import ceil
from typing import NamedTuple

from .alignment import InvariantViolation

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class BranchDepthExceeded(RuntimeError):
    """Branch-and-bound hit its depth limit without closing the gap."""


class LpResult(NamedTuple):
    """A solver's verdict; for an optimum, its exact value and vertex, each
    an ``int`` where integral and a ``Fraction`` elsewhere."""

    status: str
    value: int | Fraction | None
    solution: tuple[int | Fraction, ...] | None


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
    """One constraint matrix and the last optimal tableau reached on it,
    which the next program on the matrix starts from.

    Every program solved on a holder has its matrix and one objective.  The
    tableau's columns are the structural variables, one slack per row, then
    the right-hand side, which stands for the program with ``b = rhs``.
    """

    __slots__ = ("coeffs", "rhs", "tab", "obj")

    def __init__(self, coeffs: list[list[int]]):
        self.coeffs = coeffs
        self.tab: _Tableau | None = None

    def _seed(self, objective: list[int], rhs: list[int]) -> str:
        """Solve the first program from the slack basis."""
        if any(b > 0 for b in rhs):
            raise InvariantViolation("the first program on a matrix has a positive right-hand side")
        n, m = len(objective), len(rhs)
        rows = [
            [-a for a in coeffs] + [int(k == i) for k in range(m)] + [-b]
            for i, (coeffs, b) in enumerate(zip(self.coeffs, rhs))
        ]
        self.tab = _Tableau(rows, list(range(n, n + m)), n + m)
        self.obj = list(objective) + [0] * (m + 1)
        self.rhs = list(rhs)
        return self.tab.minimize(self.obj)

    def _resolve(self, rhs: list[int]) -> str:
        """Re-solve from the stored tableau at the new right-hand side."""
        # rhs column = slack block (d times the basis inverse) times -b:
        # the old column plus the block times the change, or the block
        # times the new -b when fewer of its entries are nonzero
        tab, first = self.tab, self.tab.ncols - len(rhs)
        column = tab.rows + [self.obj]
        terms = [(first + i, u - v) for i, (v, u) in enumerate(zip(rhs, self.rhs)) if v != u]
        nonzero = [(first + i, -v) for i, v in enumerate(rhs) if v]
        if len(nonzero) < len(terms):
            terms = nonzero
            for row in column:
                row[-1] = 0
        for j, v in terms:
            for row in column:
                row[-1] += row[j] * v
        self.rhs = list(rhs)
        return tab.dual_minimize(self.obj)

    def branch(self, j: int, sign: int, bound: int) -> WarmStart:
        """A copy with the row ``sign * x_j >= sign * bound`` added, where
        ``x_j`` is basic and ``sign`` is -1 for an upper bound, 1 for a
        lower one.  The copy's ``rhs`` is its program's, and the new slack
        is basic."""
        tab, d = self.tab, self.tab.d
        unit = [0] * (tab.ncols - len(self.rhs))
        unit[j] = sign
        child = WarmStart(self.coeffs + [unit])
        # s = sign * (x_j - bound), with x_j = (t[-1] - sum of t[k] x_k) / d
        # over the non-basic k of the row t in which x_j is basic
        t = tab.rows[tab.basis.index(j)]
        row = [sign * v for v in t[:-1]] + [d, sign * (t[-1] - d * bound)]
        row[j] = 0
        child.tab = _Tableau(
            [r[:-1] + [0, r[-1]] for r in tab.rows] + [row], tab.basis + [tab.ncols], tab.ncols + 1
        )
        child.tab.d = d
        child.obj = self.obj[:-1] + [0, self.obj[-1]]
        child.rhs = self.rhs + [sign * bound]
        return child


def _optimum(tab: _Tableau, obj: list[int], n: int) -> LpResult:
    d = tab.d
    x = [0] * n
    for row, b in zip(tab.rows, tab.basis):
        v = row[-1]
        if b < n and v:
            x[b] = v // d if v % d == 0 else Fraction(v, d)
    value = -obj[-1]
    return LpResult(OPTIMAL, value // d if value % d == 0 else Fraction(value, d), tuple(x))


def solve_lp(objective: list[int], rhs: list[int], warm: WarmStart) -> LpResult:
    """Minimize ``objective . x`` subject to ``A x >= rhs`` and ``x >= 0``,
    with ``A`` the matrix of ``warm``.

    Returns the exact optimum and one optimal vertex, an infeasibility
    verdict, or an unboundedness verdict.  The first program on ``warm``
    must have ``rhs <= 0``, or :class:`InvariantViolation` is raised, and is
    solved from the slack basis; every later one starts from the last
    optimal tableau.  A first program that is unbounded leaves ``warm``
    empty.
    """
    if warm.tab is None:
        status = warm._seed(objective, rhs)
        if status == UNBOUNDED:
            warm.tab = None
            return LpResult(UNBOUNDED, None, None)
    elif warm._resolve(rhs) == INFEASIBLE:
        return LpResult(INFEASIBLE, None, None)
    return _optimum(warm.tab, warm.obj, len(objective))


def solve_ilp(
    objective: list[int],
    rhs: list[int],
    warm: WarmStart,
    depth_limit: int | None = None,
) -> LpResult:
    """Minimize over non-negative integer vectors by branch and bound.

    The root is :func:`solve_lp` on ``warm``, which keeps the root's optimal
    tableau.  A root whose basic structural entries ``d`` divides, as every
    entry does when ``d == 1``, is integral and returned as it is.  Otherwise
    every child is :func:`solve_lp` on a copy of its parent's tableau with
    one bound row added, and nodes are explored best-bound first.

    Every cost is an integer, so no integer point below a node is cheaper
    than the ceiling of its LP value, and a node is pruned when that ceiling
    reaches the incumbent.  When every entry of ``rhs`` is at most 0, x = 0
    seeds the incumbent at value 0.  A node splits its first fractional
    coordinate with a nonzero cost, or its first fractional one when every
    fractional coordinate costs 0: a zero-cost variable can grow along a
    zero-cost cycle without moving the bound.  The depth limit defaults to
    ten times the variable count, and exceeding it is an error rather than
    an approximate answer.
    """
    root = solve_lp(objective, rhs, warm)
    if root.status != OPTIMAL:
        return root
    n, tab = len(objective), warm.tab
    d = tab.d
    if d == 1 or all(row[-1] % d == 0 for row, b in zip(tab.rows, tab.basis) if b < n):
        return root
    limit = depth_limit if depth_limit is not None else 10 * n
    best = LpResult(OPTIMAL, 0, (0,) * n) if all(b <= 0 for b in rhs) else None
    # (parent's LP value, tie-break, parent, j, sign, bound, depth) per child
    heap: list[tuple[int | Fraction, int, WarmStart, int, int, int, int]] = []
    node, result, depth, pushed = warm, root, 0, 0
    while True:
        if result.status == OPTIMAL and (best is None or ceil(result.value) < best.value):
            x = result.solution
            fractional = [j for j, v in enumerate(x) if v.denominator != 1]
            if not fractional:
                best = result
            elif depth >= limit:
                raise BranchDepthExceeded(
                    f"branch and bound exceeded depth {limit} on {n} variables"
                )
            else:
                j = next((j for j in fractional if objective[j]), fractional[0])
                floor_v = x[j].numerator // x[j].denominator
                for sign, bound in ((-1, floor_v), (1, floor_v + 1)):  # x_j <= floor_v, x_j >= floor_v + 1
                    pushed += 1
                    heapq.heappush(heap, (result.value, pushed, node, j, sign, bound, depth + 1))
        if not heap or (best is not None and ceil(heap[0][0]) >= best.value):
            break
        _, _, parent, j, sign, bound, depth = heapq.heappop(heap)
        node = parent.branch(j, sign, bound)
        result = solve_lp(objective, node.rhs, node)
    return best if best is not None else LpResult(INFEASIBLE, None, None)
