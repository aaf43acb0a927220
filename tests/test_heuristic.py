from fractions import Fraction

import pytest

import streamalign.heuristic as heuristic
from streamalign import (
    InvariantViolation,
    Marking,
    WorkflowNet,
    build_problem,
    build_spn,
    distances_to_goal,
    enumerate_state_space,
    estimate,
    extend_spn,
    generate_log,
    move_cost,
    solve_ilp,
    solve_lp,
)
from streamalign.search import memo_key
from streamalign.simplex import INFEASIBLE, UNBOUNDED, LpResult
from streamalign.spn import MoveTable
from tests.conftest import SeededRandom, nets_and_traces, random_net_and_trace


def test_problem_shape_for_unit_trace(n1):
    spn = build_spn(n1, ["a"])
    problem = build_problem(spn, spn.initial)
    assert len(problem.variables) == 6  # 4 model + 1 log + 1 sync
    assert problem.n_activity_rows == 1
    assert problem.n_model_rows == 3
    rels = [rel for _, rel, _ in problem.rows]
    assert rels.count("=") == 1 and rels.count(">=") == 3
    # the one remaining a must be consumed once, by its log or sync move
    assert problem.rows[0] == ([0, 0, 0, 0, 1, 1], "=", 1)


def unrestricted_problem(spn, marking):
    """The flow program over every product-net move and every trace place."""
    variables = spn.transition_ids()
    objective = [move_cost(spn.move(t)) for t in variables]

    def row(p):
        return [spn.postset(t).count(p) - spn.preset(t).count(p) for t in variables]

    rows = [
        (row(p), "=", (1 if p == spn.goal_place else 0) - marking.get(p))
        for p in spn.trace_places()
    ]
    rows += [(row(p), ">=", -marking.get(p)) for p in spn.model_places()]
    return variables, objective, rows


def assert_same_optimum(problem, objective, rows, context):
    for solver in (solve_lp, solve_ilp):
        mine = solver(list(problem.objective), list(problem.rows))
        full = solver(objective, rows)
        assert (mine.status, mine.value) == (full.status, full.value), (context, solver)


def test_suffix_program_matches_unrestricted_program(preset_models):
    # Random one-token state machines, plus the presets' loops and
    # concurrency on seeded noisy traces.
    rng = SeededRandom(43)
    inputs = [random_net_and_trace(rng, max_len=5) for _ in range(30)]
    noise = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}
    for model in preset_models.values():
        inputs += [(model, t) for t in generate_log(model, 3, noise, max_len=5, seed=43)]
    checked = repeated = 0
    for net, trace in inputs:
        spn = build_spn(net, trace[:1])
        for activity in [None] + trace[1:]:
            if activity is not None:
                extend_spn(spn, activity)
            markings, _ = enumerate_state_space(spn, spn.initial, 3000)
            for m in markings:
                k = next(i for i, p in enumerate(spn.trace_places()) if m.get(p))
                remaining = spn.trace[k:]
                distinct = list(dict.fromkeys(remaining))
                problem = build_problem(spn, m)
                assert problem.n_activity_rows == len(distinct)
                assert problem.n_model_rows == len(net.places)
                variables, objective, rows = unrestricted_problem(spn, m)
                # each column is a model move or the log or a synchronous move
                # of its activity's first remaining position, with that move's
                # cost and model flow and +1 in its activity's row
                blocks = [spn.table.position(remaining.index(a) + k + 1, a) for a in distinct]
                assert problem.variables == tuple(
                    r.tid for r in spn.table.model_moves + sum(blocks, ())
                )
                activity_rows = problem.rows[: problem.n_activity_rows]
                model_rows = problem.rows[problem.n_activity_rows :]
                assert [rhs for _, _, rhs in activity_rows] == [remaining.count(a) for a in distinct]
                full = {t: j for j, t in enumerate(variables)}
                full_model_rows = rows[spn.n + 1 :]
                for j, t in enumerate(problem.variables):
                    assert problem.objective[j] == objective[full[t]]
                    assert [c[j] for c, _, _ in activity_rows] == [
                        int(a == spn.move(t).activity) for a in distinct
                    ]
                    assert [c[j] for c, _, _ in model_rows] == [
                        c[full[t]] for c, _, _ in full_model_rows
                    ]
                assert [rhs for *_, rhs in model_rows] == [rhs for *_, rhs in full_model_rows]
                assert_same_optimum(problem, objective, rows, m)
                checked += 1
                repeated += any(rhs >= 2 for _, _, rhs in activity_rows)
    assert checked > 1000
    assert repeated > 0


def test_estimates_ignore_the_order_of_the_remaining_activities(preset_models):
    # Every marking of a net, on tp{k}, is also a marking of the net whose
    # trace keeps the first k activities and shuffles the rest.  The two
    # share the model part and the multiset of remaining activities, so the
    # estimates agree, and both equal the per-position program's optimum.
    rng = SeededRandom(67)
    checked = reordered = 0
    for net, trace in nets_and_traces(preset_models, 67):
        spn = build_spn(net, trace)
        shuffled = {}
        for k in range(spn.n):
            rest = trace[k:]
            shuffled[k] = build_spn(net, trace[:k] + rng.sample(rest, len(rest)))
        shuffled[spn.n] = spn
        markings, _ = enumerate_state_space(spn, spn.initial, 3000)
        for m in markings:
            k = spn.encode(m) >> spn.table.shift
            other = shuffled[k]
            for mode in ("lp", "ilp"):
                assert estimate(spn, m, mode) == estimate(other, m, mode), (m, mode)
            for case in (spn, other):
                _, objective, rows = unrestricted_problem(case, m)
                assert_same_optimum(build_problem(case, m), objective, rows, m)
            checked += 1
            reordered += other.trace != spn.trace
    assert checked > 500 and reordered > 100


def test_trace_places_of_a_longer_case_are_unknown(n1):
    table = MoveTable(n1)
    build_spn(n1, ["a", "b", "c"], table)  # the table now knows tp0 .. tp3
    spn = build_spn(n1, ["a"], table)
    beyond = Marking.of("tp2", "p2")
    assert table.encode(beyond) >> table.shift == 2 > spn.n
    with pytest.raises(ValueError):
        spn.encode(beyond)
    with pytest.raises(ValueError):
        build_problem(spn, beyond)
    with pytest.raises(ValueError):
        estimate(spn, beyond, "ilp")


def test_programs_on_a_shared_table_equal_those_on_a_private_one(preset_models):
    for net, trace in nets_and_traces(preset_models, 53):
        table = MoveTable(net)
        build_spn(net, list(reversed(trace)) + trace, table)  # other blocks come first
        shared = build_spn(net, trace[:1], table)
        alone = build_spn(net, trace[:1])
        for activity in [None] + trace[1:]:
            if activity is not None:
                extend_spn(shared, activity)
                extend_spn(alone, activity)
            markings, _ = enumerate_state_space(alone, alone.initial, 3000)
            for m in markings:
                assert build_problem(shared, m) == build_problem(alone, m)


def test_a_marking_is_a_search_state_exactly_when_its_program_is_built(preset_models):
    # Reachable markings hold one trace token; the variants move it past the
    # net's last trace place, drop it or add a second one.  The search can
    # encode exactly the markings whose program exists, and the memo keys a
    # state by its model part and the activities after its trace token.
    for net, trace in nets_and_traces(preset_models, 59):
        table = MoveTable(net)
        build_spn(net, trace + trace, table)
        spn = build_spn(net, trace, table)
        beyond = f"tp{spn.n + 1}"
        markings, _ = enumerate_state_space(spn, spn.initial, 3000)
        refused = 0
        for m in markings:
            (k,) = [i for i, p in enumerate(spn.trace_places()) if m.get(p)]
            model_part = {p: c for p, c in m.items if p != f"tp{k}"}
            variants = [
                m,
                Marking(model_part),
                Marking({**model_part, beyond: 1}),
                Marking({**model_part, f"tp{k}": 2}),
                Marking({**m.to_dict(), "tp0": m.get("tp0") + 1}),
            ]
            for v in variants:
                try:
                    build_problem(spn, v)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError):
                        spn.encode(v)
                else:
                    state = spn.encode(v)
                    assert spn.decode(state) == v
                    position = state >> spn.table.shift
                    assert position == k
                    trace_only = spn.encode(Marking.of(f"tp{position}"))
                    assert memo_key(spn, state, "ilp") == (
                        "ilp", state - trace_only, tuple(spn.trace[position:])
                    ), v
        assert refused == 4 * len(markings)


def test_problem_zero_solution_at_goal(n1):
    spn = build_spn(n1, ["a"])
    goal = Marking.of("tp1", "p2")
    problem = build_problem(spn, goal)
    for coeffs, rel, rhs in problem.rows:
        if rel == "=":
            assert rhs == 0
        else:
            assert rhs <= 0
    assert estimate(spn, goal, "ilp") == 0


def test_problem_rejects_bad_markings(n1):
    spn = build_spn(n1, ["a"])
    with pytest.raises(ValueError):
        build_problem(spn, Marking.of("nowhere", "tp0"))
    with pytest.raises(ValueError):
        build_problem(spn, Marking.of("p1"))  # no trace token


def test_estimate_examples_match_oracle(n1):
    spn = build_spn(n1, ["a"])
    _, _, dist = distances_to_goal(spn)
    m_sync = Marking.of("tp0", "p1")
    m_behind = Marking.of("tp0", "p2")
    assert dist[m_sync] == 0
    assert dist[m_behind] == 1
    for mode in ("lp", "ilp"):
        assert estimate(spn, m_sync, mode) == 0
        assert estimate(spn, m_behind, mode) == 1
    assert estimate(spn, Marking.of("tp1", "p2"), "ilp") == 0


def test_zero_mode(n1):
    spn = build_spn(n1, ["a", "b"])
    assert estimate(spn, spn.initial, "zero") == 0


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_non_optimal_flow_program_is_an_invariant_violation(n1, monkeypatch, status):
    # every accepted marking has a feasible, bounded program, so any other
    # solver status is a fault and must not turn into a silent estimate
    spn = build_spn(n1, ["a"])
    for mode, solver in (("ilp", "solve_ilp"), ("lp", "solve_lp")):
        monkeypatch.setattr(heuristic, solver, lambda *args: LpResult(status, None, None))
        with pytest.raises(InvariantViolation, match=status):
            estimate(spn, spn.initial, mode)


def test_unknown_mode(n1):
    spn = build_spn(n1, ["a"])
    with pytest.raises(ValueError):
        estimate(spn, spn.initial, "magic")


def test_admissible_and_consistent_on_random_nets():
    rng = SeededRandom(41)
    nets = 0
    while nets < 12:
        net, trace = random_net_and_trace(rng, max_len=3)
        spn = build_spn(net, trace)
        markings, edges, dist = distances_to_goal(spn, bound=3000)
        if len(markings) > 300:
            continue
        nets += 1
        values = {mode: {} for mode in ("lp", "ilp")}
        for mode in ("lp", "ilp"):
            for m in markings:
                values[mode][m] = estimate(spn, m, mode)
                assert values[mode][m] <= dist[m], (mode, m)
        for m in markings:
            assert values["lp"][m] <= values["ilp"][m] <= dist[m]
        for source, tid, target in edges:
            step = move_cost(spn.move(tid))
            for mode in ("lp", "ilp"):
                assert values[mode][source] <= step + values[mode][target]


def test_lp_can_be_fractional_below_ilp():
    # two half-weight routes let the relaxation split one unit of flow
    net = WorkflowNet(
        ["s", "m", "e"],
        ["u1", "u2", "v"],
        [("s", "u1"), ("u1", "m"), ("s", "u2"), ("u2", "m"), ("m", "v"), ("v", "e")],
        {"u1": "a", "u2": "b", "v": "c"},
        Marking.of("s"),
        Marking.of("e"),
    )
    spn = build_spn(net, ["c", "c"])
    lp = estimate(spn, spn.initial, "lp")
    ilp = estimate(spn, spn.initial, "ilp")
    assert lp <= ilp
    assert isinstance(lp, Fraction)


def test_estimates_can_shrink_under_extension():
    # The flow relaxation has no notion of time: a synchronous move added for
    # a later trace position may feed a model token back to an earlier
    # position.  Here h([tp1, p1]) drops from 1 to 0 when the third event
    # arrives, so monotone growth of estimates under extension is NOT an
    # invariant of this heuristic.  Optimality never depends on it: estimates
    # stay admissible at a fixed trace length (acceptance check 3) and across
    # an extension (acceptance check 5).
    net = WorkflowNet(
        ["p1", "p2", "p3"],
        ["ta", "tb", "td"],
        [("p1", "ta"), ("ta", "p2"), ("p2", "tb"), ("tb", "p3"), ("p1", "td"), ("td", "p3")],
        {"ta": "a", "tb": "b", "td": "d"},
        Marking.of("p1"),
        Marking.of("p3"),
    )
    spn = build_spn(net, ["d", "b"])
    lent = Marking.of("tp1", "p1")
    before = {mode: estimate(spn, lent, mode) for mode in ("lp", "ilp")}
    assert before == {"lp": 1, "ilp": 1}
    extend_spn(spn, "a")
    after = {mode: estimate(spn, lent, mode) for mode in ("lp", "ilp")}
    assert after == {"lp": 0, "ilp": 0}
    # the drop is sound: true remaining distance is still above the estimate
    _, _, dist = distances_to_goal(spn)
    assert after["ilp"] <= dist[lent]


def test_estimate_is_pure(n1):
    spn = build_spn(n1, ["a", "b"])
    first = estimate(spn, spn.initial, "ilp")
    second = estimate(spn, spn.initial, "ilp")
    assert first == second
