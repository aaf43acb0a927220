import itertools
import random
from fractions import Fraction

import pytest

from streamalign import solve_ilp, solve_lp
from streamalign.simplex import BranchDepthExceeded, INFEASIBLE, OPTIMAL, UNBOUNDED
from tests import reference_simplex


def test_single_variable_lower_bound():
    result = solve_lp([1], [([1], ">=", 3)])
    assert result.status == OPTIMAL
    assert result.value == 3
    assert result.solution == (Fraction(3),)


def test_equality_and_inequality_mix():
    # min x + y  s.t.  x + y = 2, x - y >= 1
    result = solve_lp([1, 1], [([1, 1], "=", 2), ([1, -1], ">=", 1)])
    assert result.status == OPTIMAL
    assert result.value == 2


def test_fractional_vertex():
    # min x + y  s.t.  2x + y >= 1, x + 2y >= 1 -> x = y = 1/3
    result = solve_lp([1, 1], [([2, 1], ">=", 1), ([1, 2], ">=", 1)])
    assert result.status == OPTIMAL
    assert result.value == Fraction(2, 3)
    assert result.solution == (Fraction(1, 3), Fraction(1, 3))


def test_infeasible():
    result = solve_lp([1], [([1], "=", 2), ([1], "=", 3)])
    assert result.status == INFEASIBLE


def test_unbounded():
    result = solve_lp([-1], [([1], ">=", 0)])
    assert result.status == UNBOUNDED


def test_solution_satisfies_constraints():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        obj = [rng.randint(0, 4) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            rel = rng.choice(["=", ">="])
            rhs = rng.randint(-3, 3)
            rows.append((coeffs, rel, rhs))
        result = solve_lp(obj, rows)
        if result.status != OPTIMAL:
            continue
        x = result.solution
        assert all(v >= 0 for v in x)
        assert sum(c * v for c, v in zip(obj, x)) == result.value
        for coeffs, rel, rhs in rows:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            assert lhs == rhs if rel == "=" else lhs >= rhs


def test_matches_scipy_on_random_problems():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(17)
    compared = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        obj = [rng.randint(0, 5) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            rows.append((coeffs, rng.choice(["=", ">="]), rng.randint(-3, 3)))
        mine = solve_lp(obj, rows)
        a_ub = [[-c for c in coeffs] for coeffs, rel, _ in rows if rel == ">="]
        b_ub = [-rhs for _, rel, rhs in rows if rel == ">="]
        a_eq = [coeffs for coeffs, rel, _ in rows if rel == "="]
        b_eq = [rhs for _, rel, rhs in rows if rel == "="]
        ref = scipy_optimize.linprog(
            obj,
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=[(0, None)] * n,
            method="highs",
        )
        if mine.status == OPTIMAL:
            assert ref.status == 0
            assert abs(float(mine.value) - ref.fun) < 1e-7
            compared += 1
        elif mine.status == INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3
    assert compared > 50


def brute_force_ilp(obj, rows, box=6):
    best = None
    n = len(obj)
    for point in itertools.product(range(box + 1), repeat=n):
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(c * v for c, v in zip(coeffs, point))
            if rel == "=" and lhs != rhs:
                ok = False
                break
            if rel == ">=" and lhs < rhs:
                ok = False
                break
        if ok:
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
        rows = [([rng.randint(-2, 2) for _ in range(n)], rng.choice(["=", ">="]), rng.randint(-2, 2))]
        # keep the feasible region bounded inside the brute-force box
        rows.append(([-1] * n, ">=", -5))
        expected = brute_force_ilp(obj, rows, box=5)
        result = solve_ilp(obj, rows)
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
    result = solve_ilp([1, 1], [([2, 1], ">=", 1), ([1, 2], ">=", 1)])
    assert result.status == OPTIMAL
    assert result.value == 1


def test_lp_below_ilp():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 3)
        obj = [rng.randint(0, 4) for _ in range(n)]
        rows = [
            ([rng.randint(-2, 2) for _ in range(n)], ">=", rng.randint(-2, 2)),
            ([-1] * n, ">=", -4),
        ]
        lp = solve_lp(obj, rows)
        ilp = solve_ilp(obj, rows)
        if ilp.status == OPTIMAL:
            assert lp.status == OPTIMAL
            assert lp.value <= ilp.value


def test_branch_depth_limit():
    with pytest.raises(BranchDepthExceeded):
        # fractional optimum that keeps branching; depth limit 0 trips at once
        solve_ilp([1, 1], [([2, 1], ">=", 1), ([1, 2], ">=", 1)], depth_limit=0)


def test_matches_fraction_reference_solver():
    # The integer tableau must take the same pivots as the Fraction tableau
    # it replaced: same status, same value and the same vertex, on random
    # LPs and on random ILPs kept bounded by the box row -sum(x) >= -6.
    rng = random.Random(2024)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 5)
        obj = [rng.randint(-1, 5) for _ in range(n)]
        rows = [
            ([rng.randint(-3, 3) for _ in range(n)], rng.choice(["=", ">="]), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 5))
        ]
        lp = solve_lp(obj, rows)
        assert lp == reference_simplex.solve_lp(obj, rows), (obj, rows)
        boxed = rows + [([-1] * n, ">=", -6)]
        ilp = solve_ilp(obj, boxed)
        assert ilp == reference_simplex.solve_ilp(obj, boxed), (obj, boxed)
        seen.update((lp.status, "ilp " + ilp.status))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED, "ilp optimal", "ilp infeasible"}


def test_rational_input_is_scaled_exactly():
    rows = [([Fraction(1, 2), Fraction(1, 3)], ">=", Fraction(1, 6)), ([1, -1], "=", 0)]
    result = solve_lp([Fraction(3, 4), 1], rows)
    assert result == reference_simplex.solve_lp([Fraction(3, 4), 1], rows)
    assert result.value == Fraction(7, 20)
