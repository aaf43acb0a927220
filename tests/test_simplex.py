import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from streamalign import simplex, solve_ilp, solve_lp
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


def _warm_sequences(rng, count, steps):
    """Matrices in warm form, each with a sequence of right-hand sides.

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
        rhs = [rng.randint(low, 0) for _ in coeffs]
        sequence = []
        for _ in range(steps):
            if case % 2:
                for i in rng.sample(range(len(rhs)), rng.randint(1, 2)):
                    rhs[i] = rng.randint(low, 0)
            else:
                rhs = [rng.randint(low, 0) for _ in coeffs]
            rhs[-1] = min(rhs[-1], -1) if case % 4 else rhs[-1]
            sequence.append(list(rhs))
        yield objective, coeffs, sequence


def _check_solution(result, objective, rows, integral):
    x = result.solution
    assert all(v >= 0 for v in x)
    assert sum(c * v for c, v in zip(objective, x)) == result.value
    for coeffs, _, rhs in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) >= rhs
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
    warm_steps = Counter()
    for objective, coeffs, sequence in _warm_sequences(random.Random(97), 120, 40):
        warm = simplex.WarmStart()
        for rhs in sequence:
            rows = [(c, ">=", b) for c, b in zip(coeffs, rhs)]
            seeded = warm.tab is not None
            pivots.append(0)
            result = mine(objective, rows, warm)
            expected = reference(objective, rows)
            assert (result.status, result.value) == (expected.status, expected.value), (
                objective, rows,
            )
            if result.status == OPTIMAL:
                _check_solution(result, objective, rows, solver == "ilp")
                if seeded and solver == "lp":
                    warm_steps["no pivot" if pivots[-1] == 0 else "dual pivots"] += 1
            assert warm.tab is not None or result.status == UNBOUNDED
    if solver == "lp":
        assert warm_steps["no pivot"] > 2000 and warm_steps["dual pivots"] > 200, warm_steps


def test_a_holder_given_another_program_solves_it_cold(monkeypatch):
    # The holder is tied to the exact objective and coefficient lists it was
    # built from.  An equal copy, another matrix, a row outside warm form or
    # another row count is solved from the slack basis, so its answer is the
    # cold solve's, vertex included.  A cold solve in warm form re-seeds the
    # holder; one with a positive rhs or a fractional row leaves it as it is.
    minimized = []
    minimize = simplex._Tableau.minimize

    def counted(tab, obj):
        minimized.append(obj)
        return minimize(tab, obj)

    monkeypatch.setattr(simplex._Tableau, "minimize", counted)
    objective = [2, 3, -1]
    coeffs = [[1, 1, -1], [-1, 0, 1], [-1, -1, -1]]
    warm = simplex.WarmStart()
    rows = [(c, ">=", b) for c, b in zip(coeffs, [-1, -2, -5])]
    assert solve_lp(objective, rows, warm) == solve_lp(objective, rows)
    minimized.clear()
    rows = [(c, ">=", b) for c, b in zip(coeffs, [0, -1, -3])]
    assert solve_lp(objective, rows, warm).value == solve_lp(objective, rows).value
    assert len(minimized) == 1  # the cold solve's; the warm one ran no primal simplex
    others = [
        ([(list(c), ">=", b) for c, b in zip(coeffs, [-2, 0, -4])], True),
        ([([1, 0, -1], ">=", -1), ([0, -1, 1], ">=", -2), ([-1, -1, -1], ">=", -3)], True),
        ([(c, ">=", b) for c, b in zip(coeffs, [1, -1, -3])], False),
        ([([Fraction(1, 2), 1, -1], ">=", -1), (coeffs[1], ">=", 0), (coeffs[2], ">=", -3)], False),
        ([(c, ">=", b) for c, b in zip(coeffs[:2], [0, -1])], True),
    ]
    for rows, seeds in others:
        for same_objective in (objective, list(objective)):
            held = warm.objective, warm.coeffs
            minimized.clear()
            result = solve_lp(same_objective, rows, warm)
            assert minimized, rows  # solved from the slack basis
            assert result == solve_lp(same_objective, rows)
            assert result == reference_simplex.solve_lp(same_objective, rows)
            if seeds:
                assert warm.objective is same_objective
                assert [id(c) for c in warm.coeffs] == [id(c) for c, _, _ in rows]
            else:
                assert warm.objective is held[0] and warm.coeffs is held[1]
