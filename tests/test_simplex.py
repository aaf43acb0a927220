import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from streamalign import InvariantViolation, simplex, solve_ilp, solve_lp
from streamalign.simplex import BranchDepthExceeded, INFEASIBLE, OPTIMAL, UNBOUNDED, WarmStart
from tests import reference_simplex


def warm_solve(solver, objective, coeffs, rhs, **kwargs):
    """``solver`` at ``rhs`` on a holder of ``coeffs`` first seeded at b = 0."""
    warm = WarmStart(coeffs)
    assert solve_lp(objective, [0] * len(coeffs), warm).status == OPTIMAL
    return solver(objective, rhs, warm, **kwargs)


def rows_of(coeffs, rhs):
    """The program as the reference solver takes it."""
    return [(c, ">=", b) for c, b in zip(coeffs, rhs)]


def test_single_variable_lower_bound():
    result = warm_solve(solve_lp, [1], [[1]], [3])
    assert result.status == OPTIMAL
    assert result.value == 3
    assert result.solution == (Fraction(3),)


def test_fractional_vertex():
    # min x + y  s.t.  2x + y >= 1, x + 2y >= 1 -> x = y = 1/3
    result = warm_solve(solve_lp, [1, 1], [[2, 1], [1, 2]], [1, 1])
    assert result.status == OPTIMAL
    assert result.value == Fraction(2, 3)
    assert result.solution == (Fraction(1, 3), Fraction(1, 3))


def test_infeasible():
    # x >= 2 and -x >= -1
    result = warm_solve(solve_lp, [1], [[1], [-1]], [2, -1])
    assert result.status == INFEASIBLE


def test_unbounded():
    warm = WarmStart([[1]])
    assert solve_lp([-1], [0], warm).status == UNBOUNDED
    assert warm.tab is None  # no optimal tableau to start the next program from


def test_a_first_program_with_a_positive_rhs_raises():
    # Only a right-hand side of at most 0 lets every slack start basic.  The
    # caller breaks that invariant, so it is an internal error (exit 3), not
    # a data error (ValueError, exit 2).
    warm = WarmStart([[1, 1], [1, -1]])
    with pytest.raises(InvariantViolation, match="positive right-hand side") as raised:
        solve_lp([1, 1], [-1, 1], warm)
    assert not isinstance(raised.value, ValueError)
    assert warm.tab is None
    assert solve_lp([1, 1], [-1, 0], warm).status == OPTIMAL
    assert solve_lp([1, 1], [-1, 1], warm).value == 1  # later programs may have b > 0


def _warm_sequences(rng, count, steps):
    """Matrices, each with a sequence of right-hand sides.

    The first right-hand side is at most 0; later ones have entries up to 2
    in four of five matrices, so some of their programs are infeasible.
    Half the sequences draw every right-hand side afresh, half walk: each
    step changes one or two entries of the last one.  Some matrices repeat
    a row, have a zero row or column, or take mostly zero right-hand sides,
    so many vertices are degenerate.  The last row boxes x in, so that
    branch and bound ends.
    """
    for case in range(count):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        objective = [rng.randint(-1, 5) for _ in range(n)]
        coeffs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if case % 3 == 1:
            coeffs.append(list(coeffs[0]))
            coeffs.append([0] * n)
            for row in coeffs:
                row[-1] = 0
        coeffs.append([-1] * n)
        low = -1 if case % 4 == 0 else -4
        high = 0 if case % 5 == 0 else 2
        rhs = []
        sequence = []
        for step in range(steps):
            top = 0 if step == 0 else high
            if case % 2 and rhs:
                for i in rng.sample(range(len(rhs)), rng.randint(1, 2)):
                    rhs[i] = rng.randint(low, top)
            else:
                rhs = [rng.randint(low, top) for _ in coeffs]
            rhs[-1] = min(rhs[-1], -1 if case % 4 else 0)
            sequence.append(list(rhs))
        yield objective, coeffs, sequence


def _check_solution(result, objective, coeffs, rhs, integral):
    x = result.solution
    assert all(v >= 0 for v in x)
    assert sum(c * v for c, v in zip(objective, x)) == result.value
    for row, b in zip(coeffs, rhs, strict=True):
        assert sum(c * v for c, v in zip(row, x)) >= b
    if integral:
        assert all(v.denominator == 1 for v in x)


@pytest.mark.parametrize("solver", ["lp", "ilp"])
def test_warm_solves_match_the_reference_over_long_sequences(monkeypatch, solver):
    # Each matrix keeps one holder for its whole sequence.  Values and
    # statuses must equal the Fraction reference's cold solves, and every
    # optimal vertex must be feasible (and integral under ilp); the vertex
    # itself may differ, since a warm solve can land on another optimum.
    pivots = []
    pivot = simplex._Tableau.pivot

    def counted(tab, r, c, obj):
        pivots[-1] += 1
        return pivot(tab, r, c, obj)

    monkeypatch.setattr(simplex._Tableau, "pivot", counted)
    mine, reference = (solve_lp, reference_simplex.solve_lp)
    if solver == "ilp":
        mine, reference = (solve_ilp, reference_simplex.solve_ilp)
    seen = Counter()
    for objective, coeffs, sequence in _warm_sequences(random.Random(97), 120, 40):
        warm = WarmStart(coeffs)
        for rhs in sequence:
            seeded = warm.tab is not None
            pivots.append(0)
            result = mine(objective, rhs, warm)
            expected = reference(objective, rows_of(coeffs, rhs))
            assert (result.status, result.value) == (expected.status, expected.value), (
                objective, coeffs, rhs,
            )
            seen[result.status, any(b > 0 for b in rhs)] += 1
            if result.status == OPTIMAL:
                _check_solution(result, objective, coeffs, rhs, solver == "ilp")
                if seeded and solver == "lp":
                    seen["no pivot" if pivots[-1] == 0 else "dual pivots"] += 1
            assert warm.tab is not None
    assert seen[INFEASIBLE, True] > 1000 and seen[OPTIMAL, True] > 400, seen
    if solver == "lp":
        assert seen["no pivot"] > 2000 and seen["dual pivots"] > 200, seen


def test_solution_satisfies_constraints():
    rng = random.Random(5)
    for objective, coeffs, sequence in _warm_sequences(rng, 60, 10):
        warm = WarmStart(coeffs)
        for rhs in sequence:
            result = solve_lp(objective, rhs, warm)
            if result.status == OPTIMAL:
                _check_solution(result, objective, coeffs, rhs, False)


def test_matches_scipy_on_random_problems():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    compared = 0
    for objective, coeffs, sequence in _warm_sequences(random.Random(17), 40, 10):
        warm = WarmStart(coeffs)
        for rhs in sequence:
            mine = solve_lp(objective, rhs, warm)
            ref = scipy_optimize.linprog(
                objective,
                A_ub=[[-c for c in row] for row in coeffs],
                b_ub=[-b for b in rhs],
                bounds=[(0, None)] * len(objective),
                method="highs",
            )
            if mine.status == OPTIMAL:
                assert ref.status == 0
                assert abs(float(mine.value) - ref.fun) < 1e-7
                compared += 1
            else:
                assert mine.status == INFEASIBLE and ref.status == 2
    assert compared > 50


def brute_force_ilp(obj, coeffs, rhs, box=6):
    best = None
    for point in itertools.product(range(box + 1), repeat=len(obj)):
        if all(sum(c * v for c, v in zip(row, point)) >= b for row, b in zip(coeffs, rhs)):
            value = sum(c * v for c, v in zip(obj, point))
            if best is None or value < best:
                best = value
    return best


def test_ilp_matches_brute_force():
    rng = random.Random(29)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        obj = [rng.randint(0, 4) for _ in range(n)]
        # keep the feasible region bounded inside the brute-force box
        coeffs = [[rng.randint(-2, 2) for _ in range(n)], [-1] * n]
        rhs = [rng.randint(-2, 2), -5]
        expected = brute_force_ilp(obj, coeffs, rhs, box=5)
        result = warm_solve(solve_ilp, obj, coeffs, rhs)
        if expected is None:
            assert result.status == INFEASIBLE
        else:
            assert result.status == OPTIMAL
            assert result.value == expected
            assert all(v.denominator == 1 for v in result.solution)
            checked += 1
    assert checked > 40


def test_ilp_rounds_up_fractional_vertex():
    # LP optimum 2/3 at (1/3, 1/3); integer optimum is 1
    result = warm_solve(solve_ilp, [1, 1], [[2, 1], [1, 2]], [1, 1])
    assert result.status == OPTIMAL
    assert result.value == 1


def test_lp_below_ilp():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 3)
        obj = [rng.randint(0, 4) for _ in range(n)]
        coeffs = [[rng.randint(-2, 2) for _ in range(n)], [-1] * n]
        rhs = [rng.randint(-2, 2), -4]
        lp = warm_solve(solve_lp, obj, coeffs, rhs)
        ilp = warm_solve(solve_ilp, obj, coeffs, rhs)
        if ilp.status == OPTIMAL:
            assert lp.status == OPTIMAL
            assert lp.value <= ilp.value


def test_a_root_that_d_divides_is_integral_and_never_branches(monkeypatch):
    # min x + y s.t. 2x >= 2 and 3y >= 6: the dual simplex pivots on -2 and
    # -3, so the tableau ends over d = 6 with x and y basic at 6 and 12, both
    # multiples of d.  The root is integral, so solve_ilp returns it from
    # its one solve_lp call, and the vertex and value are ints.
    calls = []
    solve = simplex.solve_lp

    def counted(*args):
        calls.append(solve(*args))
        return calls[-1]

    def no_branch(*args):
        raise AssertionError("an integral root was branched")

    warm = WarmStart([[2, 0], [0, 3]])
    assert solve_lp([1, 1], [0, 0], warm).status == OPTIMAL
    monkeypatch.setattr(simplex, "solve_lp", counted)
    monkeypatch.setattr(WarmStart, "branch", no_branch)
    result = solve_ilp([1, 1], [2, 6], warm)
    assert warm.tab.d == 6 and sorted(row[-1] for row in warm.tab.rows) == [6, 12]
    assert calls == [result] and result == (OPTIMAL, 3, (1, 2))
    assert type(result.value) is int and all(type(v) is int for v in result.solution)


def test_vertex_coordinates_are_ints_unless_fractional():
    # only a coordinate that d does not divide is a Fraction
    rng = random.Random(7)
    kinds = Counter()
    for objective, coeffs, sequence in _warm_sequences(rng, 60, 10):
        warm = WarmStart(coeffs)
        for rhs in sequence:
            result = solve_lp(objective, rhs, warm)
            if result.status == OPTIMAL:
                for v in result.solution + (result.value,):
                    assert type(v) is (int if v.denominator == 1 else Fraction), v
                    kinds[type(v), warm.tab.d > 1] += 1
    assert kinds[int, True] > 100 and kinds[Fraction, True] > 100, kinds


def test_branch_depth_limit():
    with pytest.raises(BranchDepthExceeded):
        # fractional optimum that keeps branching; depth limit 0 trips at once
        warm_solve(solve_ilp, [1, 1], [[2, 1], [1, 2]], [1, 1], depth_limit=0)


def _branching_programs(rng, count):
    """Boxed programs whose root LP vertex is fractional, with b up to 3."""
    while count:
        n, m = rng.randint(2, 5), rng.randint(1, 4)
        objective = [rng.randint(0, 5) for _ in range(n)]
        coeffs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)] + [[-1] * n]
        rhs = [rng.randint(-3, 3) for _ in range(m)] + [-rng.randint(2, 8)]
        lp = warm_solve(solve_lp, objective, coeffs, rhs)
        if lp.status == OPTIMAL and any(v.denominator != 1 for v in lp.solution):
            count -= 1
            yield objective, coeffs, rhs, lp


def test_branch_and_bound_children_match_the_reference(monkeypatch):
    # Each child is one solve_lp call on a copy of its parent's tableau with
    # one bound row added; every node, the root included, is one call, and
    # each child's answer is the reference's on the program its holder names.
    calls, branches = [], []
    solve, branch = simplex.solve_lp, WarmStart.branch

    def counted_solve(objective, rhs, warm):
        calls.append((objective, len(rhs), warm))
        result = solve(objective, rhs, warm)
        if calls[1:]:
            expected = reference_simplex.solve_lp(objective, rows_of(warm.coeffs, warm.rhs))
            assert (result.status, result.value) == (expected.status, expected.value)
            if result.status == OPTIMAL:
                _check_solution(result, objective, warm.coeffs, warm.rhs, False)
        return result

    def counted_branch(self, *args):
        child = branch(self, *args)
        branches.append(child)
        return child

    monkeypatch.setattr(simplex, "solve_lp", counted_solve)
    monkeypatch.setattr(WarmStart, "branch", counted_branch)
    above = 0
    for objective, coeffs, rhs, lp in _branching_programs(random.Random(83), 300):
        warm = WarmStart(coeffs)
        solve_lp(objective, [0] * len(coeffs), warm)  # not through the patched module
        calls.clear()
        branches.clear()
        result = solve_ilp(objective, rhs, warm)
        expected = reference_simplex.solve_ilp(objective, rows_of(coeffs, rhs))
        assert (result.status, result.value) == (expected.status, expected.value), (
            objective, coeffs, rhs,
        )
        if result.status == OPTIMAL:
            _check_solution(result, objective, coeffs, rhs, True)
            above += result.value > lp.value
        assert calls[0] == (objective, len(coeffs), warm)
        assert [warm for _, _, warm in calls[1:]] == branches
        assert all(o is objective and rows > len(coeffs) for o, rows, _ in calls[1:])
    assert above > 100


def test_solve_ilp_leaves_the_holder_at_the_root_optimum():
    # The children work on copies, so after a solve_ilp the caller's holder
    # is where a solve_lp of the root would have left it.
    rng = random.Random(89)
    for objective, coeffs, rhs, _ in _branching_programs(rng, 100):
        after_ilp, after_lp = WarmStart(coeffs), WarmStart(coeffs)
        for warm in (after_ilp, after_lp):
            solve_lp(objective, [0] * len(coeffs), warm)
        solve_ilp(objective, rhs, after_ilp)
        solve_lp(objective, rhs, after_lp)
        assert after_ilp.tab.rows == after_lp.tab.rows and after_ilp.obj == after_lp.obj
        following = [rng.randint(-3, 1) for _ in coeffs]
        assert solve_lp(objective, following, after_ilp) == solve_lp(objective, following, after_lp)
