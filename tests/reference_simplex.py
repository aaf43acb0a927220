"""Reference two-phase simplex over ``fractions.Fraction``, for tests only.

This is the solver the package used before it switched to fraction-free
integer pivoting: the same dense tableau, Bland's rule, phase 1, removal of
artificials and best-bound branch and bound, but with every entry an exact
``Fraction``.  The differential tests in ``test_simplex.py`` require the
package's solver to return the same status, value and vertex.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from streamalign.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BranchDepthExceeded,
    LpResult,
)

Row = tuple[list, str, object]  # (coefficients, "=" | ">=", rhs)


class _Tableau:
    """Dense simplex tableau; rows are basic, last column is the rhs."""

    def __init__(self, rows: list[list], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols  # structural + slack + artificial columns

    def pivot(self, row_idx: int, col: int, obj: list) -> None:
        zero = Fraction(0)
        row = self.rows[row_idx]
        factor = row[col]
        if factor != 1:
            inv = Fraction(1) / factor
            self.rows[row_idx] = row = [v * inv for v in row]
        for other in self.rows:
            if other is row:
                continue
            f = other[col]
            if f != zero:
                for j in range(len(row)):
                    other[j] -= f * row[j]
        f = obj[col]
        if f != zero:
            for j in range(len(row)):
                obj[j] -= f * row[j]
        self.basis[row_idx] = col

    def minimize(self, obj: list) -> str:
        """Drive the objective row to optimality with Bland's rule."""
        zero = Fraction(0)
        while True:
            entering = -1
            for j in range(self.ncols):
                if obj[j] < zero:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > zero:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering, obj)


def solve_lp(objective: list, rows: list[Row]) -> LpResult:
    """Minimize ``objective . x`` subject to the rows and ``x >= 0``.

    Returns exact rational optimum and one optimal vertex, an infeasibility
    verdict, or an unboundedness verdict.
    """
    n = len(objective)
    zero, one = Fraction(0), Fraction(1)

    conv: list[tuple[list, str, object]] = []
    for coeffs, rel, rhs in rows:
        if len(coeffs) != n:
            raise ValueError("row length does not match objective length")
        if rel not in ("=", ">="):
            raise ValueError(f"unsupported relation {rel!r}")
        conv.append(([Fraction(c) for c in coeffs], rel, Fraction(rhs)))

    # Layout: structural vars | slacks (one per >= row) | artificials.
    n_slack = sum(1 for _, rel, _ in conv if rel == ">=")
    slack_base = n
    art_base = n + n_slack

    work: list[tuple[list, object, int | None]] = []  # (coeffs, rhs, slack col)
    slack_idx = 0
    needs_artificial: list[bool] = []
    for coeffs, rel, rhs in conv:
        scol = None
        if rel == ">=":
            scol = slack_base + slack_idx
            slack_idx += 1
            if rhs <= zero:
                # flip so the slack column is +1 and the rhs non-negative:
                # a.x >= b  <=>  -a.x + s = -b with s >= 0
                coeffs = [-c for c in coeffs]
                rhs = -rhs
                work.append((coeffs, rhs, scol))
                needs_artificial.append(False)
                continue
            # rhs > 0: keep a.x - s = b; the slack cannot start basic
            work.append((coeffs, rhs, -scol - 1))  # negative marker: coeff -1
            needs_artificial.append(True)
        else:
            if rhs < zero:
                coeffs = [-c for c in coeffs]
                rhs = -rhs
            work.append((coeffs, rhs, scol))
            needs_artificial.append(True)

    n_art = sum(needs_artificial)
    ncols = n + n_slack + n_art
    rows_out: list[list] = []
    basis: list[int] = []
    art_idx = 0
    for (coeffs, rhs, scol), needs_art in zip(work, needs_artificial):
        row = coeffs + [zero] * (n_slack + n_art) + [rhs]
        if scol is not None:
            if scol >= 0:
                row[scol] = one
            else:
                row[-scol - 1] = -one
        if needs_art:
            acol = art_base + art_idx
            art_idx += 1
            row[acol] = one
            basis.append(acol)
        else:
            basis.append(scol)
        rows_out.append(row)

    tab = _Tableau(rows_out, basis, ncols)

    if n_art:
        phase1 = [zero] * (ncols + 1)
        for j in range(art_base, art_base + n_art):
            phase1[j] = one
        for i, b in enumerate(basis):
            if b >= art_base:  # make the objective row consistent with the basis
                for j in range(ncols + 1):
                    phase1[j] -= tab.rows[i][j]
        status = tab.minimize(phase1)
        if status == UNBOUNDED or -phase1[-1] > zero:
            return LpResult(INFEASIBLE, None, None)
        # pivot lingering artificials out of the basis, drop redundant rows
        keep: list[int] = []
        for i in range(len(tab.rows)):
            if tab.basis[i] < art_base:
                keep.append(i)
                continue
            pivot_col = -1
            for j in range(art_base):
                if tab.rows[i][j] != zero:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tab.pivot(i, pivot_col, phase1)
                keep.append(i)
            # else: all-zero structural row, redundant; drop it
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    tab.ncols = art_base  # artificial columns are dead from here on
    obj = [Fraction(c) for c in objective] + [zero] * (n_slack + n_art) + [zero]
    for i, b in enumerate(tab.basis):
        if obj[b] != zero:
            f = obj[b]
            for j in range(len(obj)):
                obj[j] -= f * tab.rows[i][j]
    status = tab.minimize(obj)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    x = [zero] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            x[b] = tab.rows[i][-1]
    return LpResult(OPTIMAL, -obj[-1], tuple(x))


def _is_integral(value: Fraction) -> bool:
    return value.denominator == 1


def solve_ilp(
    objective: list, rows: list[Row], depth_limit: int | None = None
) -> LpResult:
    """Minimize over non-negative integer vectors by branch and bound.

    Nodes are explored best-bound first; branching splits the first
    fractional coordinate of the node's LP vertex.  The depth limit defaults
    to ten times the variable count and exceeding it is an error rather than
    an approximate answer.
    """
    n = len(objective)
    limit = depth_limit if depth_limit is not None else 10 * n

    root = solve_lp(objective, rows)
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
