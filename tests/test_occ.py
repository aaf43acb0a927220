import pytest

from streamalign import (
    CaseEntry,
    Marking,
    MoveTable,
    build_spn,
    dijkstra_oracle,
    fire_sequence,
    occ_process_event,
    revert_alignment,
    verify_prefix_alignment,
)
from streamalign.assets import trap_model
from tests.conftest import SeededRandom, random_net_and_trace


def run_occ(model, trace, window, h_mode="ilp"):
    state, table = CaseEntry(), MoveTable(model)
    results = []
    for activity in trace:
        alignment, outcome = occ_process_event(state, activity, window, h_mode, table)
        results.append((alignment, outcome))
    return state, results


def oracle_prefix_costs(model, trace):
    costs = []
    for k in range(1, len(trace) + 1):
        spn = build_spn(model, trace[:k])
        costs.append(dijkstra_oracle(spn, spn.initial)[0])
    return costs


def test_unbounded_window_is_optimal_on_running_example(n1):
    _, results = run_occ(n1, ["a", "b", "c"], window=None)
    assert [a.total_cost for a, _ in results] == [0, 0, 1]


def test_first_event_starts_at_initial(n1):
    state = CaseEntry()
    alignment, _ = occ_process_event(state, "a", 1, "ilp", MoveTable(n1))
    assert alignment.total_cost == 0
    assert state.spn is not None


def test_window_validation(n1):
    state, results = run_occ(n1, ["a"], window=None)
    with pytest.raises(ValueError):
        revert_alignment(state.spn, results[-1][0].moves, 0)


def test_revert_examples(n1):
    # cost-0 alignment of <a, b>: sync a then sync b, ending at [tp2, p3]
    state, results = run_occ(n1, ["a", "b"], window=None)
    alignment = results[-1][0]
    assert alignment.total_cost == 0
    spn = state.spn
    surviving, restart = revert_alignment(spn, alignment.moves, 1)
    assert [mv.tid for mv in surviving] == ["sync:tt1|t1"]
    assert spn.decode(restart) == Marking.of("tp1", "p2")  # replay of the surviving move
    # unbounded window reverts everything
    initial = spn.encode(spn.initial)
    assert revert_alignment(spn, alignment.moves, None) == ((), initial)
    # empty alignment reverts to the initial marking
    assert revert_alignment(spn, (), 3) == ((), initial)


def test_revert_strips_trailing_model_moves(n1):
    # <b> aligns as silent model move + sync b; reverting one event must
    # also drop the dangling silent move before it
    state, results = run_occ(n1, ["b"], window=None)
    alignment = results[-1][0]
    assert [mv.tid for mv in alignment.moves] == ["model:t2", "sync:tt1|t3"]
    surviving, restart = revert_alignment(state.spn, alignment.moves, 1)
    assert surviving == ()
    assert state.spn.decode(restart) == state.spn.initial


def test_restart_state_is_the_replay_of_the_surviving_moves():
    # Revert each case's previous alignment on its extended net, as the
    # baseline does, and replay the survivors transition by transition.
    rng = SeededRandom(71)
    reverted = 0
    for _ in range(20):
        net, trace = random_net_and_trace(rng, max_len=6)
        table = MoveTable(net)
        for window in (1, 2, 3, None):
            entry = CaseEntry()
            for activity in trace:
                previous = () if entry.checkpoint is None else entry.checkpoint.moves
                alignment, _ = occ_process_event(entry, activity, window, "ilp", table)
                spn = entry.spn
                surviving, restart = revert_alignment(spn, previous, window)
                replay = fire_sequence(spn.petri_net(), spn.initial, [mv.tid for mv in surviving])
                assert spn.decode(restart) == replay, (trace, window)
                assert alignment.moves[: len(surviving)] == surviving
                reverted += bool(surviving)
    assert reverted > 30


def test_literal_acb_trace_is_repairable_with_window_one(n1):
    # After <a, c> the baseline commits to the synchronous c; reverting one
    # event reopens both the c and the b decision, so the emitted cost stays
    # optimal here.  Window-one false positives need deeper commitments (see
    # the trap model below); verified against the uniform-cost oracle.
    _, results = run_occ(n1, ["a", "c", "b"], window=1)
    committed = results[1][0]
    assert committed.total_cost == 0
    assert committed.end_marking == Marking.of("tp2", "p3")
    assert [a.total_cost for a, _ in results] == oracle_prefix_costs(n1, ["a", "c", "b"])


def test_trap_model_window_one_false_positive(trap):
    trace = ["x", "y", "z"]
    optimal = oracle_prefix_costs(trap, trace)
    assert optimal == [0, 0, 0]
    _, results = run_occ(trap, trace, window=1)
    costs = [a.total_cost for a, _ in results]
    assert costs[-1] > optimal[-1]  # spurious deviation from the committed branch
    _, results_w2 = run_occ(trap, trace, window=2)
    assert [a.total_cost for a, _ in results_w2] == optimal


def test_occ_never_below_optimal_and_unbounded_matches(n1):
    rng = SeededRandom(37)
    for _ in range(15):
        net, trace = random_net_and_trace(rng, max_len=5)
        optimal = oracle_prefix_costs(net, trace)
        for window in (1, 2, None):
            _, results = run_occ(net, trace, window)
            costs = [a.total_cost for a, _ in results]
            assert all(c >= o for c, o in zip(costs, optimal))
            if window is None:
                assert costs == optimal


def test_emitted_alignments_verify(trap):
    trace = ["x", "y", "z", "w"]
    state, results = run_occ(trap, trace, window=1)
    for k, (alignment, _) in enumerate(results, start=1):
        assert verify_prefix_alignment(alignment, trace[:k], trap)
