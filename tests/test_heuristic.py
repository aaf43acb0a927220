from collections import Counter
from fractions import Fraction

import pytest

import streamalign.heuristic as heuristic
from streamalign import (
    InvariantViolation,
    Marking,
    StreamEngine,
    WorkflowNet,
    build_problem,
    build_spn,
    distances_to_goal,
    enumerate_state_space,
    estimate,
    extend_spn,
    generate_log,
    move_cost,
    replay_log_as_stream,
    solve_ilp,
    solve_lp,
)
from streamalign.search import memo_key
from streamalign.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, WarmStart, _Tableau
from streamalign.spn import MoveTable, trace_place
from tests.conftest import SeededRandom, nets_and_traces, random_net_and_trace


def rows_of(spn, rhs):
    """The ``a . x >= b`` rows of the program at ``rhs``, as ``(a, b)`` pairs."""
    return list(zip(spn.table.program.coeffs, rhs, strict=True))


def test_problem_shape_for_unit_trace(n1):
    spn = build_spn(n1, ["a"])
    rhs, offset = build_problem(spn, spn.encode(spn.initial))
    program = spn.table.program
    # 4 model moves, then one synchronous column per labelled model
    # transition (t1: a, t3: b, t4: c); the log moves are substituted out
    assert program.variables == (
        "model:t1", "model:t2", "model:t3", "model:t4", "sync:t1", "sync:t3", "sync:t4"
    )
    assert len(program.activity_rows) == 3  # a, b and c, whether ahead or not
    assert len(program.place_offsets) == 3
    rows = rows_of(spn, rhs)
    assert len(rows) == 6
    # the one remaining a is consumed once, by its log or sync move, so the
    # sync move fires at most once; b and c are not ahead, so theirs never
    # fire; the log move's cost 1 is the offset, and a sync move saves it
    assert rows[:3] == [
        ([0, 0, 0, 0, -1, 0, 0], -1),
        ([0, 0, 0, 0, 0, -1, 0], 0),
        ([0, 0, 0, 0, 0, 0, -1], 0),
    ]
    assert rows[3] == ([-1, -1, 0, 0, -1, 0, 0], -1)  # p1 holds the token
    assert program.objective == [1, 0, 1, 1, -1, -1, -1] and offset == 1


def unrestricted_problem(spn, marking):
    """The flow program over every product-net move and every trace place.

    Its rows are ``(coefficients, relation, rhs)``, with one ``=`` row per
    trace place and one ``>=`` row per model place.
    """
    net, moves = spn.petri_net(), spn.transitions
    variables = net.transitions
    objective = [move_cost(moves[t]) for t in variables]

    def row(p):
        return [net.postset(t).count(p) - net.preset(t).count(p) for t in variables]

    rows = [
        (row(p), "=", (1 if p == spn.goal_place else 0) - marking.get(p))
        for p in map(trace_place, range(spn.n + 1))
    ]
    rows += [(row(p), ">=", -marking.get(p)) for p in spn.model.places]
    return variables, objective, rows


def assert_same_optimum(spn, problem, objective, rows, context):
    # the fixed-form program, re-solved from the model's last optimal basis,
    # against the per-position program over every move, with each = row
    # written as two >= rows, on a holder seeded at b = 0
    program, (fixed_rhs, offset) = spn.table.program, problem
    coeffs, rhs = [], []
    for a, rel, b in rows:
        coeffs.append(a)
        rhs.append(b)
        if rel == "=":
            coeffs.append([-v for v in a])
            rhs.append(-b)
    for solver in (solve_lp, solve_ilp):
        mine = solver(program.objective, fixed_rhs, program.warm)
        seeded = WarmStart(coeffs)
        assert solve_lp(objective, [0] * len(coeffs), seeded).status == OPTIMAL
        full = solver(objective, rhs, seeded)
        assert mine.status == full.status == OPTIMAL, (context, solver)
        assert mine.value + offset == full.value, (context, solver)


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
        labelled = [t for t in net.transitions if net.label(t) is not None]
        activities = list(dict.fromkeys(map(net.label, labelled)))
        spn = build_spn(net, trace[:1])
        for activity in [None] + trace[1:]:
            if activity is not None:
                extend_spn(spn, activity)
            markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, 3000)
            for m in markings:
                k = next(i for i in range(spn.n + 1) if m.get(trace_place(i)))
                remaining = spn.trace[k:]
                problem = build_problem(spn, spn.encode(m))
                fixed_rhs, offset = problem
                program = spn.table.program
                # the columns are the model moves, then one synchronous
                # column per labelled model transition; the rows are one per
                # model activity, then one per model place
                assert program.variables == tuple(r.tid for r in spn.table.model_moves) + tuple(
                    f"sync:{t}" for t in labelled
                )
                n_activity_rows = len(program.activity_rows)
                assert n_activity_rows == len(activities)
                assert len(program.place_offsets) == len(net.places)
                variables, objective, rows = unrestricted_problem(spn, m)
                fixed_rows = rows_of(spn, fixed_rhs)
                activity_rows = fixed_rows[:n_activity_rows]
                model_rows = fixed_rows[n_activity_rows:]
                assert [rhs for _, rhs in activity_rows] == [-remaining.count(a) for a in activities]
                full = {t: j for j, t in enumerate(variables)}
                log_moves = [spn.table.extension(i + 1, a)[0][0] for i, a in enumerate(spn.trace)]
                assert offset == sum(objective[full[r.tid]] for r in log_moves[k:])
                full_model_rows = rows[spn.n + 1 :]
                for j, tid in enumerate(program.variables):
                    # a synchronous column has its model transition's flow and
                    # costs a synchronous move less its activity's log move,
                    # as at every trace position of that activity
                    kind, t = tid.split(":")
                    a = net.label(t) if kind == "sync" else None
                    assert [c[j] for c, _ in model_rows] == [
                        c[full[f"model:{t}"]] for c, _, _ in full_model_rows
                    ]
                    assert [c[j] for c, _ in activity_rows] == [-int(b == a) for b in activities]
                    if a is None:
                        assert program.objective[j] == objective[full[tid]]
                    for i in (i + 1 for i, b in enumerate(spn.trace) if b == a):
                        sync, log = full[f"sync:tt{i}|{t}"], full[f"log:tt{i}"]
                        assert program.objective[j] == objective[sync] - objective[log]
                assert [rhs for _, rhs in model_rows] == [rhs for *_, rhs in full_model_rows]
                assert_same_optimum(spn, problem, objective, rows, m)
                checked += 1
                repeated += any(rhs <= -2 for _, rhs in activity_rows)
    assert checked > 1000
    assert repeated > 0


def test_every_program_starts_at_the_all_log_moves_solution(preset_models, monkeypatch):
    # Every right-hand side is at most 0, so x = 0 is feasible; its value,
    # the offset, is the cost of a log move for each remaining event; and a
    # first program on a holder starts there, with one primal minimize.
    minimized = []
    minimize = _Tableau.minimize

    def counted(tab, obj):
        minimized.append(obj)
        return minimize(tab, obj)

    monkeypatch.setattr(_Tableau, "minimize", counted)
    checked = 0
    for net, trace in nets_and_traces(preset_models, 71):
        spn = build_spn(net, trace)
        markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, 3000)
        for m in markings:
            rhs, offset = build_problem(spn, spn.encode(m))
            program = spn.table.program
            k = spn.encode(m) >> spn.table.shift
            assert all(b <= 0 for b in rhs), m
            log_moves = [spn.table.extension(i + 1, a)[0][0] for i, a in enumerate(trace)]
            assert offset == sum(move_cost(r) for r in log_moves[k:])
            minimized.clear()
            result = solve_lp(program.objective, rhs, WarmStart(program.coeffs))
            assert result.status == OPTIMAL and len(minimized) == 1, m
            assert result.value <= 0  # never above the all-log-moves value
            checked += 1
    assert checked > 500


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
        markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, 3000)
        for m in markings:
            k = spn.encode(m) >> spn.table.shift
            other = shuffled[k]
            for mode in ("lp", "ilp"):
                mine = estimate(spn, spn.encode(m), mode)
                assert mine == estimate(other, other.encode(m), mode), (m, mode)
            for case in (spn, other):
                _, objective, rows = unrestricted_problem(case, m)
                problem = build_problem(case, case.encode(m))
                assert_same_optimum(case, problem, objective, rows, m)
            checked += 1
            reordered += other.trace != spn.trace
    assert checked > 500 and reordered > 100


def test_right_hand_sides_match_the_remaining_activity_counts(preset_models):
    # build_problem reads the activity rows and the offset off the net's
    # prefix counts and the place rows off the packed state.  After every
    # extension, and with the counts built by an estimate before it, they
    # must equal a count of trace[k:] and of the marking at every k, on a
    # shared table and on a private one.
    checked = 0
    for net, trace in nets_and_traces(preset_models, 61):
        table = MoveTable(net)
        build_spn(net, list(reversed(trace)) + trace, table)  # other blocks come first
        nets = (build_spn(net, trace[:1], table), build_spn(net, trace[:1]))
        models = (net.initial, net.final)
        for activity in [None] + trace[1:]:
            for spn in nets:
                if activity is not None:
                    extend_spn(spn, activity)
                log_costs = [move_cost(spn.table.extension(i + 1, a)[0][0]) for i, a in
                             enumerate(spn.trace)]
                for k in range(spn.n + 1):
                    remaining = Counter(spn.trace[k:])
                    for model in models:
                        state = spn.encode(Marking.of(trace_place(k), *model.places()))
                        rhs, offset = build_problem(spn, state)
                        program = spn.table.program
                        activities = [-remaining[a] for a in program.activity_rows]
                        places = [-model.get(p) for p in program.place_rows]
                        assert rhs == activities + places, (spn.trace, k, model)
                        assert offset == sum(log_costs[k:])
                        checked += 1
                # the prefix counts reach the end of the trace, and the next
                # extension finds them built
                assert len(spn.prefix_counts) == spn.n + 1
                estimate(spn, spn.encode(spn.initial), "ilp")
    assert checked > 1000


def test_trace_places_of_a_longer_case_are_unknown(n1):
    table = MoveTable(n1)
    build_spn(n1, ["a", "b", "c"], table)  # the table now knows tp0 .. tp3
    spn = build_spn(n1, ["a"], table)
    beyond = Marking.of("tp2", "p2")
    assert table.encode(beyond) >> table.shift == 2 > spn.n
    with pytest.raises(ValueError, match="beyond tp1"):
        spn.encode(beyond)  # so neither a search nor a program sees it


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
            markings, _ = enumerate_state_space(alone.petri_net(), alone.initial, 3000)
            for m in markings:
                mine = build_problem(shared, shared.encode(m))
                assert mine == build_problem(alone, alone.encode(m))
        one, other = shared.table.program, alone.table.program
        assert (one.variables, one.objective, one.coeffs) == (
            other.variables, other.objective, other.coeffs
        )


def test_a_marking_is_a_search_state_exactly_when_its_program_is_built(preset_models):
    # Reachable markings hold one trace token; the variants move it past the
    # net's last trace place, drop it or add a second one.  The net encodes
    # exactly the reachable markings, each state's program is built, and the
    # memo keys a state by its model part and the activities after its
    # trace token.
    for net, trace in nets_and_traces(preset_models, 59):
        table = MoveTable(net)
        build_spn(net, trace + trace, table)
        spn = build_spn(net, trace, table)
        beyond = f"tp{spn.n + 1}"
        markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, 3000)
        refused = 0
        for m in markings:
            (k,) = [i for i in range(spn.n + 1) if m.get(trace_place(i))]
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
                    state = spn.encode(v)
                except ValueError:
                    refused += 1
                else:
                    assert v == m
                    rhs, _ = build_problem(spn, state)
                    assert len(rhs) == len(spn.table.program.activity_rows) + len(net.places)
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
    rhs, offset = build_problem(spn, spn.encode(goal))
    # no activity is ahead: every activity row has right-hand side 0
    assert len(spn.table.program.activity_rows) == 3 and offset == 0
    assert rhs == [0, 0, 0, 0, -1, 0]
    assert estimate(spn, spn.encode(goal), "ilp") == 0


def test_one_flow_program_per_move_table(preset_models, monkeypatch):
    # The program is built at a table's first estimate and shared by every
    # net on the table; its objective is the very list each estimate
    # solves, and its warm start holds its matrix.  A second table builds
    # its own, and an engine under zero builds none.
    objectives = []
    for name in ("solve_lp", "solve_ilp"):
        def recorded(objective, *args, solve=getattr(heuristic, name)):
            objectives.append(objective)
            return solve(objective, *args)

        monkeypatch.setattr(heuristic, name, recorded)
    net = preset_models["choice-loop"]
    trace = generate_log(net, 1, {"swap_p": 0.2}, max_len=6, seed=5)[0]
    table = MoveTable(net)
    first, second = build_spn(net, trace, table), build_spn(net, trace[::-1], table)
    assert table.program is None
    estimate(first, first.encode(first.initial), "ilp")
    program = table.program
    assert program is not None
    for spn, mode in ((first, "lp"), (second, "ilp"), (second, "lp")):
        estimate(spn, spn.encode(spn.initial), mode)
        rhs, _ = build_problem(spn, spn.encode(spn.initial))
        assert table.program is program and objectives[-1] is program.objective
        assert program.warm.coeffs is program.coeffs
        assert len(rhs) == len(program.coeffs)
    assert len(objectives) == 4
    alone = build_spn(net, trace)
    estimate(alone, alone.encode(alone.initial), "ilp")
    assert alone.table.program is not None and alone.table.program is not program
    for algorithm in ("ias", "occ"):
        engine = StreamEngine(net, algorithm, "zero")
        engine.run(replay_log_as_stream([trace]))
        assert engine.moves.memo == {} and engine.moves.program is None
        (entry,) = engine.table.cases.values()
        assert entry.spn.n == len(trace) and entry.spn.prefix_counts is None


def test_problem_rejects_bad_markings(n1):
    # a program is built for a packed state, and no such state exists for these
    spn = build_spn(n1, ["a"])
    with pytest.raises(ValueError, match="not a place of the table"):
        spn.encode(Marking.of("nowhere", "tp0"))
    with pytest.raises(ValueError, match="no trace token"):
        spn.encode(Marking.of("p1"))


def test_estimate_examples_match_oracle(n1):
    spn = build_spn(n1, ["a"])
    _, _, dist = distances_to_goal(spn)
    m_sync = Marking.of("tp0", "p1")
    m_behind = Marking.of("tp0", "p2")
    assert dist[m_sync] == 0
    assert dist[m_behind] == 1
    for mode, kind in (("lp", Fraction), ("ilp", int)):
        for m, value in ((m_sync, 0), (m_behind, 1)):
            h = estimate(spn, spn.encode(m), mode)
            assert h == value and type(h) is kind  # lp gives a Fraction even when integral
    assert estimate(spn, spn.encode(Marking.of("tp1", "p2")), "ilp") == 0


def test_zero_mode(n1):
    spn = build_spn(n1, ["a", "b"])
    assert estimate(spn, spn.encode(spn.initial), "zero") == 0


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_non_optimal_flow_program_is_an_invariant_violation(n1, monkeypatch, status):
    # every accepted marking has a feasible, bounded program, so any other
    # solver status is a fault and must not turn into a silent estimate
    spn = build_spn(n1, ["a"])
    for mode, solver in (("ilp", "solve_ilp"), ("lp", "solve_lp")):
        monkeypatch.setattr(heuristic, solver, lambda *args: LpResult(status, None, None))
        with pytest.raises(InvariantViolation, match=status):
            estimate(spn, spn.encode(spn.initial), mode)


def test_unknown_mode(n1):
    spn = build_spn(n1, ["a"])
    with pytest.raises(ValueError):
        estimate(spn, spn.encode(spn.initial), "magic")


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
                values[mode][m] = estimate(spn, spn.encode(m), mode)
                assert values[mode][m] <= dist[m], (mode, m)
        for m in markings:
            assert values["lp"][m] <= values["ilp"][m] <= dist[m]
        moves = spn.transitions
        for source, tid, target in edges:
            step = move_cost(moves[tid])
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
    start = spn.encode(spn.initial)
    lp = estimate(spn, start, "lp")
    ilp = estimate(spn, start, "ilp")
    assert lp <= ilp
    assert isinstance(lp, Fraction)


def test_the_benchmark_tracer_counts_every_branch_and_bound_node(monkeypatch):
    # perfbench's tracer wraps heuristic.solve_ilp and simplex.solve_lp,
    # reads the first two arguments of a solve as the objective and the
    # right-hand side, and counts the solve_lp calls beyond one per
    # solve_ilp as branch-and-bound nodes.  So every child is one call of
    # the module's solve_lp, with one more right-hand side per bound row.
    from perfbench.tracing import Tracer

    children = []
    branch = WarmStart.branch

    def counted(self, *args):
        children.append(branch(self, *args))
        return children[-1]

    monkeypatch.setattr(WarmStart, "branch", counted)
    # a loop d a a back to p1, or an exit c d; on trace a d d the relaxation
    # fires the loop's moves half a time each, at cost 1/2
    net = WorkflowNet(
        ["i", "p1", "p2", "p3", "p4", "o"],
        ["t0", "t1", "t2", "t3", "t4", "t5"],
        [("i", "t0"), ("t0", "p1"), ("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3"),
         ("p3", "t3"), ("t3", "p1"), ("p3", "t4"), ("t4", "p4"), ("p4", "t5"), ("t5", "o")],
        {"t0": None, "t1": "d", "t2": "a", "t3": "a", "t4": "c", "t5": "d"},
        Marking.of("i"),
        Marking.of("o"),
    )
    spn = build_spn(net, ["a", "d", "d"])
    tracer = Tracer()
    with tracer.installed_sites():
        assert estimate(spn, spn.encode(spn.initial), "ilp") == 1
    assert estimate(spn, spn.encode(spn.initial), "lp") == Fraction(1, 2)
    program = spn.table.program
    calls, sizes = tracer.calls, tracer.sizes
    assert calls["heuristic.build"] == calls["simplex.ilp"] == 1
    assert calls["simplex.lp"] - calls["simplex.ilp"] == len(children) > 0
    assert sizes["simplex.lp_columns"] == len(program.variables) * calls["simplex.lp"]
    assert sizes["simplex.lp_rows"] == len(program.coeffs) + sum(len(c.rhs) for c in children)
    assert all(len(c.rhs) > len(program.coeffs) for c in children)


@pytest.mark.parametrize("preset, rows, columns", [("choice-loop", 10, 11), ("parallel-tau", 10, 8)])
def test_the_benchmark_traces_one_root_solve_per_estimate(preset_models, preset, rows, columns):
    # perfbench's tracer times search.estimate -> heuristic.build_problem ->
    # heuristic.solve_ilp -> simplex.solve_lp and reads the objective's and
    # the right-hand side's lengths.  On a replay whose every root is
    # integral, each estimate is one solve_ilp and one solve_lp call, and
    # the program's size per solve is fixed by the model.
    from perfbench.tracing import Tracer

    net = preset_models[preset]
    log = generate_log(net, 6, {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}, 8, seed=2024)
    engine = StreamEngine(net, "ias", "ilp")
    tracer = Tracer()
    with tracer.installed_sites():
        results = engine.run(replay_log_as_stream(log))
    calls, sizes = tracer.calls, tracer.sizes
    lps = sum(r.metrics.lps_solved for r in results)
    assert lps > 0
    assert calls["heuristic"] == calls["heuristic.build"] == lps
    assert calls["simplex.ilp"] == calls["simplex.lp"] == lps  # no branch-and-bound node
    assert sizes["simplex.lp_rows"] == rows * lps
    assert sizes["simplex.lp_columns"] == columns * lps


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
    before = {mode: estimate(spn, spn.encode(lent), mode) for mode in ("lp", "ilp")}
    assert before == {"lp": 1, "ilp": 1}
    extend_spn(spn, "a")
    after = {mode: estimate(spn, spn.encode(lent), mode) for mode in ("lp", "ilp")}
    assert after == {"lp": 0, "ilp": 0}
    # the drop is sound: true remaining distance is still above the estimate
    _, _, dist = distances_to_goal(spn)
    assert after["ilp"] <= dist[lent]


def test_estimate_is_pure(n1):
    spn = build_spn(n1, ["a", "b"])
    start = spn.encode(spn.initial)
    first = estimate(spn, start, "ilp")
    second = estimate(spn, start, "ilp")
    assert first == second
