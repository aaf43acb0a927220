"""The search's packed states on random nets with concurrency, loops and
place ids that sort among the trace place ids.

Draws come from :func:`tests.conftest.make_random_concurrent_wfnet`, seeded
by hypothesis with a fixed derandomized schedule, so every run checks the
same nets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamalign import (
    CaseEntry,
    Marking,
    SearchCache,
    astar_inc,
    build_spn,
    dijkstra_oracle,
    enumerate_state_space,
    extend_spn,
    fire,
    occ_process_event,
)
from streamalign.petri import StateSpaceTooLarge
from streamalign.spn import FIELD_MAX, MoveTable
from tests.conftest import INTERLEAVED_IDS, make_random_concurrent_wfnet

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def fixed(examples: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


def net_and_trace(seed: int, length: int):
    rng = random.Random(seed)
    net = make_random_concurrent_wfnet(rng)
    alphabet = list(net.visible_alphabet())
    return net, [rng.choice(alphabet) for _ in range(length)], rng


def test_draws_have_concurrency_loops_and_interleaved_ids():
    nets = [make_random_concurrent_wfnet(random.Random(seed)) for seed in range(100)]
    trace_ids = sorted(f"tp{i}" for i in range(20))
    splits = loops = 0
    for net in nets:
        splits += any(len(net.postset(t)) > 1 for t in net.transitions)
        # a loop's redo part feeds a place that an earlier transition also feeds
        loops += any(len(net.place_preset(p)) > 1 for p in net.places)
    assert splits > 20 and loops > 20
    places = {p for net in nets for p in net.places}
    assert places >= set(INTERLEAVED_IDS)
    assert min(places) < trace_ids[0] and max(places) > trace_ids[-1]
    assert any(trace_ids[0] < p < trace_ids[-1] for p in places)


@fixed(40)
@given(SEEDS, st.integers(min_value=1, max_value=6))
def test_every_algorithm_matches_the_oracle_on_every_prefix(seed, length):
    net, trace, _ = net_and_trace(seed, length)
    caches = {}
    occ, occ_table = CaseEntry(), MoveTable(net)
    spns = {}
    for k, activity in enumerate(trace, start=1):
        costs = {}
        for refresh in (False, True):
            if refresh not in spns:
                spns[refresh] = build_spn(net, [activity])
                caches[refresh] = SearchCache(spns[refresh])
            else:
                extend_spn(spns[refresh], activity)
            outcome = astar_inc(caches[refresh], "ilp", refresh=refresh)
            costs[refresh] = outcome.alignment.total_cost
            assert caches[refresh].invariants_ok()
        costs["occ"] = occ_process_event(occ, activity, None, "ilp", occ_table)[0].total_cost
        prefix = build_spn(net, trace[:k])
        oracle, _ = dijkstra_oracle(prefix, prefix.initial)
        assert costs == {False: oracle, True: oracle, "occ": oracle}, (seed, trace[:k])


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


@fixed(25)
@given(SEEDS, st.integers(min_value=11, max_value=14))
def test_tie_key_orders_states_as_marking_items(seed, length):
    # Long traces put the trace token on tp10 and beyond, which sort
    # between tp1 and tp2; the synthetic markings add counts above one.
    net, trace, rng = net_and_trace(seed, length)
    spn = build_spn(net, trace)
    table = spn.table
    markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, bound=20000)
    for _ in range(200):
        counts = {p: rng.choice([0, 0, 1, 2, FIELD_MAX]) for p in net.places}
        counts[f"tp{rng.randint(0, spn.n)}"] = 1
        markings.append(Marking(counts))
    states = [spn.encode(m) for m in markings]
    assert [spn.decode(s) for s in states] == markings
    pairs = list(zip(markings, states))
    for _ in range(2000):
        (a, sa), (b, sb) = rng.sample(pairs, 2)
        by_items = sign((a.items > b.items) - (a.items < b.items))
        assert sign(table.tie_key(sa) - table.tie_key(sb)) == by_items, (a, b)
    by_key = sorted(states, key=table.tie_key)
    assert [spn.decode(s) for s in by_key] == sorted(markings, key=lambda m: m.items)


@fixed(25)
@given(SEEDS, st.integers(min_value=1, max_value=12))
def test_a_move_fires_by_adding_its_delta(seed, length):
    net, trace, _ = net_and_trace(seed, length)
    spn = build_spn(net, trace, MoveTable(net))
    table, view = spn.table, spn.petri_net()
    markings, _ = enumerate_state_space(view, spn.initial, bound=20000)
    for m in markings:
        state = spn.encode(m)
        marked = ((state | table.guards) - table.lows) & table.guards
        for move in spn.candidate_moves(state):
            enabled = all(m.get(p) > 0 for p in move.pre)
            assert (marked & move.need == move.need) == enabled
            if enabled:
                assert spn.decode(state + move.delta) == fire(view, m, move.tid)


def test_a_count_past_the_field_limit_never_wraps(n1):
    # t1 moves the token of p1 to p2; with p2 full, the sum sets p2's guard
    # bit instead of carrying into p1's field, and the table names p2.
    spn = build_spn(n1, ["a"])
    table = spn.table
    full = spn.encode(Marking({"tp0": 1, "p1": 1, "p2": FIELD_MAX}))
    assert spn.decode(full).get("p2") == FIELD_MAX
    successor = full + spn.move("model:t1").delta
    assert successor & table.guards
    with pytest.raises(StateSpaceTooLarge, match="place 'p2' would hold more than"):
        raise table.overflow(successor)
    with pytest.raises(StateSpaceTooLarge, match="'p2' holds 128 tokens"):
        spn.encode(Marking({"tp0": 1, "p2": FIELD_MAX + 1}))
