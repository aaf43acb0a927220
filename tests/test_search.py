import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from heapq import heappop, heappush
from pathlib import Path

import pytest

import streamalign
from streamalign import (
    Marking,
    SearchCache,
    StreamEngine,
    astar_inc,
    astar_scratch,
    build_spn,
    dijkstra_oracle,
    extend_spn,
    generate_log,
    replay_log_as_stream,
    validate_wfnet,
    verify_prefix_alignment,
)
from streamalign.search import SearchExhausted, memo_key
from tests.conftest import (
    SeededRandom,
    make_random_concurrent_wfnet,
    nets_and_traces,
    open_estimates,
    random_net_and_trace,
)


class ExpansionLog:
    """The markings the searches on one product net expanded, in order.

    The search asks the net for a state's candidate moves exactly once per
    expansion, so wrapping that method on the instance sees every expansion.
    """

    def __init__(self, spn):
        self.markings = []
        candidate_moves = spn.candidate_moves

        def logged(state):
            self.markings.append(spn.decode(state))
            return candidate_moves(state)

        spn.candidate_moves = logged


def closed_markings(cache):
    """The markings of the cache's closed states: its ``g`` keys that are not open."""
    return {cache.spn.decode(s) for s in cache.g.keys() - cache.live.keys()}


def run_incremental(model, trace, h_mode, refresh=False):
    """Per-event outcomes of the resumed search over a growing trace.

    After every event the cache's closed set must be exactly the markings
    expanded so far that are not open again.
    """
    spn = build_spn(model, trace[:1])
    cache = SearchCache(spn)
    log = ExpansionLog(spn)
    outcomes = []
    for k, activity in enumerate(trace):
        if k:
            extend_spn(spn, activity)
        outcomes.append(astar_inc(cache, h_mode, refresh=refresh))
        open_markings = {spn.decode(s) for s in cache.live}
        assert closed_markings(cache) == set(log.markings) - open_markings
    return spn, outcomes


def entry(table, state, f, g):
    """A heap entry as the search loop builds it."""
    return (f, -g, table.tie_key(state), state)


def test_open_set_orders_by_f_then_deeper_g_then_marking(n1):
    spn = build_spn(n1, ["a"])
    a, b, c = (spn.encode(Marking.of("tp0", p)) for p in ("p1", "p2", "p3"))
    heap = []
    for state, f, g in ((b, 2, 0), (a, 1, 0), (c, 1, 1)):
        heappush(heap, entry(spn.table, state, f, g))
    assert heappop(heap)[3] == c  # same f, larger g wins
    assert heappop(heap)[3] == a
    assert heappop(heap)[3] == b
    # same f and g: the marking order decides, in which tp10 precedes tp2
    longer = build_spn(n1, ["b"] * 10)
    on_2, on_10 = (longer.encode(Marking.of(f"tp{k}", "p1")) for k in (2, 10))
    ties = []
    for state in (on_2, on_10):
        heappush(ties, entry(longer.table, state, 3, 1))
    assert [heappop(ties)[3] for _ in range(2)] == [on_10, on_2]


def test_refresh_solves_the_open_states_in_marking_order(n1, monkeypatch):
    # The iasr refresh re-solves the open states in the canonical marking
    # order, which fixes what the memo evicts.  After two events the open
    # set's insertion order is not that order, so a refresh that walked it
    # would solve them in another order.
    spn = build_spn(n1, ["a"])
    cache = SearchCache(spn)
    astar_inc(cache, "ilp")
    extend_spn(spn, "b")
    astar_inc(cache, "ilp", refresh=True)
    extend_spn(spn, "c")
    open_states = [e[3] for e in cache.live.values()]
    in_marking_order = sorted(open_states, key=spn.table.tie_key)
    assert open_states != in_marking_order
    assert len({memo_key(spn, s, "ilp") for s in open_states}) == len(open_states)
    spn.table.memo.clear()  # so every open state's program is solved afresh
    solved = []
    estimate = streamalign.search.estimate

    def logged(net, state, mode):
        solved.append(state)
        return estimate(net, state, mode)

    monkeypatch.setattr(streamalign.search, "estimate", logged)
    outcome = astar_inc(cache, "ilp", refresh=True)
    assert outcome.metrics.lps_solved == len(solved) >= len(open_states)
    assert solved[: len(open_states)] == in_marking_order


def test_open_set_decrease_key(n1):
    # A push replaces its state's one live entry and abandons the old one
    # on the heap; a search pops an abandoned entry and skips it, even one
    # that sorts first.  Here that is a goal marking's, which a search that
    # did not skip it would stop at.
    spn = build_spn(n1, ["a"])
    table = spn.table
    cache, fresh = SearchCache(spn), SearchCache(build_spn(n1, ["a"]))
    root = cache.root
    assert cache.heap == [entry(table, root, 0, 0)] and cache.live == {root: cache.heap[0]}
    for f in (5, 0):  # the root again at a dearer, then at its own key
        cache.live[root] = pushed = entry(table, root, f, 0)
        heappush(cache.heap, pushed)
    goal = spn.encode(Marking.of("tp1", "p3"))
    heappush(cache.heap, entry(table, goal, -1, 0))
    assert len(cache.live) == 1 and len(cache.heap) == 4
    assert cache.heap[0][3] == goal
    outcome, expected = astar_inc(cache, "ilp"), astar_inc(fresh, "ilp")
    assert outcome.alignment == expected.alignment
    assert outcome.metrics.visited == expected.metrics.visited
    assert outcome.metrics.queued == expected.metrics.queued
    assert all(e[3] != goal for e in cache.heap)
    assert cache.invariants_ok()


# "lazy" keeps the open estimates (ias), "eager" re-solves them (iasr)
@pytest.mark.parametrize("refresh", [False, True], ids=["lazy", "eager"])
def test_running_example_per_event_costs(n1, refresh):
    _, outcomes = run_incremental(n1, ["a", "b", "c"], "ilp", refresh)
    assert [o.alignment.total_cost for o in outcomes] == [0, 0, 1]


def test_single_event_c_is_free(n1):
    # silent step into p2, then synchronize on c
    spn = build_spn(n1, ["c"])
    outcome = astar_scratch(spn, "ilp")
    assert outcome.alignment.total_cost == 0
    assert [m.tid for m in outcome.alignment.moves] == [
        "model:t2",
        "sync:tt1|t4",
    ]


def test_goal_marking_stays_in_open(n1):
    spn = build_spn(n1, ["a"])
    cache = SearchCache(spn)
    outcome = astar_inc(cache, "ilp")
    goal = spn.encode(outcome.alignment.end_marking)
    assert goal in cache.live
    assert outcome.alignment.end_marking not in closed_markings(cache)
    assert cache.invariants_ok()


def test_lazy_solves_no_more_lps_than_eager(n1):
    rng = SeededRandom(3)
    for _ in range(20):
        net, trace = random_net_and_trace(rng, max_len=6)
        _, lazy = run_incremental(net, trace, "ilp")
        _, eager = run_incremental(net, trace, "ilp", refresh=True)
        assert [o.alignment.total_cost for o in lazy] == [
            o.alignment.total_cost for o in eager
        ]
        assert sum(o.metrics.lps_solved for o in lazy) <= sum(
            o.metrics.lps_solved for o in eager
        )


def test_scratch_equals_incremental_and_oracle(n1):
    rng = SeededRandom(13)
    for _ in range(30):
        net, trace = random_net_and_trace(rng, max_len=5)
        spn, outcomes = run_incremental(net, trace, "ilp")
        prefix_spn = None
        for k in range(1, len(trace) + 1):
            prefix_spn = build_spn(net, trace[:k])
            scratch = astar_scratch(prefix_spn, "ilp")
            oracle_cost, _ = dijkstra_oracle(prefix_spn, prefix_spn.initial)
            assert outcomes[k - 1].alignment.total_cost == scratch.alignment.total_cost
            assert scratch.alignment.total_cost == oracle_cost


def test_scratch_from_goal_marking_is_empty(n1):
    spn = build_spn(n1, ["a"])
    goal = Marking.of("tp1", "p2")
    outcome = astar_scratch(spn, "ilp", start=spn.encode(goal))
    assert outcome.alignment.moves == ()
    assert outcome.alignment.total_cost == 0


def test_dijkstra_oracle_running_example(n1):
    spn = build_spn(n1, ["a", "b", "c"])
    cost, dist = dijkstra_oracle(spn, spn.initial)
    assert cost == 1
    assert dist[spn.initial] == 0
    goal = Marking.of("tp1", "p2")
    assert dijkstra_oracle(build_spn(n1, ["a"]), goal)[0] == 0


def test_g_values_untouched_by_extension(n1):
    spn = build_spn(n1, ["a"])
    cache = SearchCache(spn)
    astar_inc(cache, "ilp")
    snapshot = repr(sorted((spn.decode(s).items, g) for s, g in cache.g.items())).encode()
    extend_spn(spn, "b")
    after = repr(sorted((spn.decode(s).items, g) for s, g in cache.g.items())).encode()
    assert snapshot == after


def test_closed_markings_keep_enabled_sets_across_extension(n1):
    from streamalign import enabled_transitions

    rng = SeededRandom(7)
    for _ in range(15):
        net, trace = random_net_and_trace(rng, max_len=5)
        spn = build_spn(net, trace[:1])
        cache = SearchCache(spn)
        astar_inc(cache, "ilp")
        for activity in trace[1:]:
            net = spn.petri_net()
            before = {m: tuple(enabled_transitions(net, m)) for m in closed_markings(cache)}
            old_goal = spn.goal_place
            extend_spn(spn, activity)
            net = spn.petri_net()
            for m, enabled_set in before.items():
                assert m.get(old_goal) == 0  # closed states never mark the frontier
                assert tuple(enabled_transitions(net, m)) == enabled_set
            astar_inc(cache, "ilp")


def test_pop_count_bounds(n1):
    rng = SeededRandom(19)
    for _ in range(15):
        net, trace = random_net_and_trace(rng, max_len=5)
        for refresh in (False, True):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            log = ExpansionLog(spn)
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                log.markings.clear()
                outcome = astar_inc(cache, "ilp", refresh=refresh)
                # A state pops once per search unless a cheaper path reopens
                # it; every pop but the goal's expands its state, and the
                # search asks for candidate moves once per expansion.
                assert max(Counter(log.markings).values()) <= 1 + outcome.metrics.reopened
                assert len(log.markings) == outcome.metrics.visited
                if refresh:
                    assert outcome.metrics.reopened == 0


def test_deterministic_expansion_order(n1):
    rng = SeededRandom(23)
    for _ in range(10):
        net, trace = random_net_and_trace(rng, max_len=5)
        runs = []
        for _ in range(2):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            log = ExpansionLog(spn)
            expansions = []
            costs = []
            counters = []
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                log.markings.clear()
                outcome = astar_inc(cache, "ilp")
                expansions.append(tuple(log.markings))
                costs.append(outcome.alignment.total_cost)
                counters.append(
                    (
                        outcome.metrics.queued,
                        outcome.metrics.visited,
                        outcome.metrics.lps_solved,
                        outcome.metrics.heuristic_recomputations,
                    )
                )
            runs.append((tuple(expansions), tuple(costs), tuple(counters)))
        assert runs[0] == runs[1]


def test_zero_estimates_never_go_stale():
    # A zero estimate cannot change under extension, so eager refresh
    # recomputes none, and keeping the estimates expands exactly what
    # refreshing them does.
    rng = SeededRandom(29)
    for _ in range(10):
        net, trace = random_net_and_trace(rng, max_len=5)
        runs = {}
        for refresh in (False, True):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            log = ExpansionLog(spn)
            runs[refresh] = []
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                log.markings.clear()
                outcome = astar_inc(cache, "zero", refresh=refresh)
                assert outcome.metrics.heuristic_recomputations == 0
                runs[refresh].append((tuple(log.markings), outcome.alignment.total_cost))
        assert runs[False] == runs[True]


OPTIMIZED_CHECK = """
import sys
import streamalign.occ as occ
import streamalign.search as search
from streamalign import CaseEntry, InvariantViolation, MoveTable, SearchCache, build_spn
from streamalign.assets import ordering_model

if not sys.flags.optimize:
    sys.exit("not running under -O")
model = ordering_model()
for module in (search, occ):
    module.verify_prefix_alignment = lambda *args: False
try:
    spn = build_spn(model, ["a"])
    search.astar_inc(SearchCache(spn))
except InvariantViolation:
    print("search raised")
try:
    occ.occ_process_event(CaseEntry(), "a", None, "ilp", MoveTable(model))
except InvariantViolation:
    print("occ raised")
"""


def test_invariant_checks_survive_optimized_mode():
    # The per-event alignment checks must not be assert statements, which
    # python -O strips: break verification and expect InvariantViolation.
    src = str(Path(streamalign.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["search raised", "occ raised"]


def test_emitted_alignments_always_verify(n1):
    rng = SeededRandom(27)
    for _ in range(15):
        net, trace = random_net_and_trace(rng, max_len=5)
        spn, outcomes = run_incremental(net, trace, "ilp")
        for k, outcome in enumerate(outcomes, start=1):
            assert verify_prefix_alignment(outcome.alignment, trace[:k], net)


def searched_entries(net, trace, h_mode, refresh):
    """Resume one search over the growing trace and check, after every
    event, the open-set entries and memo keys that the search loop built.

    Every live entry must be the one a push builds for its state's ``g``
    and an estimate the memo holds for that state, under the
    trace of one of the searches since it was reached (a kept estimate
    dates from an earlier event), and it must be on the heap.  Every memo
    key must be :func:`memo_key` of a reached state under the trace of
    some search.  Returns the searches' summed ``reopened``.
    """
    spn = build_spn(net, trace[:1])
    cache = SearchCache(spn)
    table, memo = spn.table, spn.table.memo
    keys: dict[int, set] = {}  # state -> its memo keys under each search's trace
    reopened = 0
    for k, activity in enumerate(trace):
        if k:
            extend_spn(spn, activity)
        reopened += astar_inc(cache, h_mode, refresh=refresh).metrics.reopened
        for s in cache.g:
            keys.setdefault(s, set()).add(memo_key(spn, s, h_mode))
        on_heap = {id(e) for e in cache.heap}
        for s, e in cache.live.items():
            g = cache.g[s]
            h = e[0] - g
            assert e == entry(table, s, g + h, g)
            assert id(e) in on_heap
            if h_mode == "zero":
                assert h == 0
            elif refresh:
                assert h == memo[memo_key(spn, s, h_mode)]
            else:
                assert h in {memo[key] for key in keys[s] if key in memo}
        assert memo.keys() <= set().union(*keys.values())
    return reopened


def test_the_loop_builds_entries_and_memo_keys_as_the_open_set_would():
    draws = [random_net_and_trace(SeededRandom(seed), max_len=6) for seed in range(15)]
    for seed in range(40):
        net = make_random_concurrent_wfnet(SeededRandom(seed))
        if validate_wfnet(net).ok:
            rng = SeededRandom(seed)
            alphabet = sorted(net.visible_alphabet())
            draws.append((net, [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]))
    assert len(draws) > 40
    for net, trace in draws:
        for h_mode in ("ilp", "zero"):
            for refresh in (False, True):
                searched_entries(net, trace, h_mode, refresh)
    # the reopening instance of test_reopening_repairs_stale_key_misordering
    net, trace = random_net_and_trace(SeededRandom(1285), max_len=7)
    for h_mode in ("ilp", "lp"):
        assert searched_entries(net, trace, h_mode, False) >= 1
        searched_entries(net, trace, h_mode, True)


def test_reopening_repairs_stale_key_misordering():
    # An instance where a kept open-set estimate overshoots a fresh one
    # after an extension (estimates can shrink), pops get mis-ordered and a
    # state closes with a non-minimal cost.  The cheaper route must reopen
    # it, keeping the resumed search exact.  Found by random search against
    # the uniform-cost oracle: 4 places, trace b,c,d,d,d,c,d.
    net, trace = random_net_and_trace(SeededRandom(1285), max_len=7)
    for h_mode in ("ilp", "lp"):
        spn, outcomes = run_incremental(net, trace, h_mode)
        for k in range(1, len(trace) + 1):
            prefix_spn = build_spn(net, trace[:k])
            assert outcomes[k - 1].alignment.total_cost == dijkstra_oracle(
                prefix_spn, prefix_spn.initial
            )[0]
        assert sum(o.metrics.reopened for o in outcomes) >= 1, h_mode


@pytest.mark.parametrize("h_mode", ["ilp", "lp"])
def test_ias_solves_estimates_only_for_queued_or_reopened_states(preset_models, h_mode):
    # ias keeps every estimate it solved: it refreshes nothing after an
    # extension, so the only estimates it solves again are those of the
    # states it reopens, and every program it solves is a queued state's.
    for net, trace in nets_and_traces(preset_models, 59):
        for result in StreamEngine(net, "ias", h_mode).run(replay_log_as_stream([trace])):
            metrics = result.metrics
            assert metrics.heuristic_recomputations == metrics.reopened, trace
            assert metrics.lps_solved <= metrics.queued, trace


def test_a_cache_keeps_one_copy_of_each_piece_of_search_state():
    # Estimates live only in the open set's keys (f minus g), the open set
    # is the heap and its live entries, and a cache with no goal yet is one
    # whose first search counts its root as queued.
    assert SearchCache.__slots__ == (
        "spn", "root", "heap", "live", "g", "_p", "goal", "checkpoint"
    )


# Summed heuristic_recomputations and reopened per (log, algorithm, heuristic):
# the 60-trace preset logs of tests/test_replay_digests.py, replayed
# round-robin, and the reopening instance of
# test_reopening_repairs_stale_key_misordering, searched alone.
REFRESH_COUNTS = {
    ("choice-loop", "ias", "ilp"): (0, 0), ("choice-loop", "ias", "lp"): (0, 0),
    ("choice-loop", "iasr", "ilp"): (1365, 0), ("choice-loop", "iasr", "lp"): (1365, 0),
    ("choice-loop", "ias", "zero"): (0, 0), ("choice-loop", "iasr", "zero"): (0, 0),
    ("parallel-tau", "ias", "ilp"): (0, 0), ("parallel-tau", "ias", "lp"): (0, 0),
    ("parallel-tau", "iasr", "ilp"): (812, 0), ("parallel-tau", "iasr", "lp"): (812, 0),
    ("parallel-tau", "ias", "zero"): (0, 0), ("parallel-tau", "iasr", "zero"): (0, 0),
    ("reopening", "ias", "ilp"): (1, 1), ("reopening", "ias", "lp"): (1, 1),
    ("reopening", "iasr", "ilp"): (57, 0), ("reopening", "iasr", "lp"): (57, 0),
}


def test_refresh_and_reopen_counts_are_pinned(preset_models):
    counts = {}
    noise = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}
    for name, model in preset_models.items():
        log = generate_log(model, 60, noise, max_len=8, seed=7)
        stream = replay_log_as_stream(log, "round-robin")
        for algorithm in ("ias", "iasr"):
            for h_mode in ("ilp", "lp", "zero"):
                metrics = [r.metrics for r in StreamEngine(model, algorithm, h_mode).run(stream)]
                counts[name, algorithm, h_mode] = (
                    sum(m.heuristic_recomputations for m in metrics),
                    sum(m.reopened for m in metrics),
                )
    net, trace = random_net_and_trace(SeededRandom(1285), max_len=7)
    for algorithm in ("ias", "iasr"):
        for h_mode in ("ilp", "lp"):
            _, outcomes = run_incremental(net, trace, h_mode, refresh=algorithm == "iasr")
            counts["reopening", algorithm, h_mode] = (
                sum(o.metrics.heuristic_recomputations for o in outcomes),
                sum(o.metrics.reopened for o in outcomes),
            )
    assert counts == REFRESH_COUNTS


@pytest.mark.parametrize("h_mode, refresh", [("magic", False)], ids=["magic-lazy"])
def test_a_rejected_argument_leaves_the_cache_untouched(n1, h_mode, refresh):
    # The arguments are checked before the search pops the root or takes
    # its seed off the counters, so the next valid call runs as on a fresh
    # cache.  That cache is on a net of its own, whose table's memo holds
    # none of the estimates the first search solves.
    def summary(outcome, cache):
        metrics = asdict(outcome.metrics)
        del metrics["wall_time"]
        return outcome.alignment, metrics, sorted(cache.g.items()), sorted(cache.live)

    for valid_mode, valid_refresh in (("zero", False), ("ilp", False), ("ilp", True)):
        spn = build_spn(n1, ["a"])
        rejected = SearchCache(spn)
        with pytest.raises(ValueError, match="unknown"):
            astar_inc(rejected, h_mode, refresh=refresh)
        with pytest.raises(TypeError):  # refresh is keyword-only, so a stale policy string fails
            astar_inc(rejected, valid_mode, "lazy")
        fresh = SearchCache(build_spn(n1, ["a"]))
        assert summary(astar_inc(rejected, valid_mode, refresh=valid_refresh), rejected) == summary(
            astar_inc(fresh, valid_mode, refresh=valid_refresh), fresh
        )
    with pytest.raises(ValueError, match="unknown heuristic mode"):
        astar_scratch(build_spn(n1, ["a"]), "magic")


def test_search_exhausted_is_unreachable_on_product_nets(n1):
    # empty the open set by hand to show the guard exists
    spn = build_spn(n1, ["a"])
    cache = SearchCache(spn)
    cache.live.clear()
    with pytest.raises(SearchExhausted):
        astar_inc(cache, "ilp")


def test_zero_searches_store_no_estimates(preset_models):
    # under zero every open key is its g alone
    for net, trace in nets_and_traces(preset_models, 53):
        for refresh in (False, True):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                astar_inc(cache, "zero", refresh=refresh)
                assert set(open_estimates(cache).values()) == {0}
        for algorithm in ("ias", "iasr"):
            engine = StreamEngine(net, algorithm, "zero")
            engine.run(replay_log_as_stream([trace, trace[::-1]], "round-robin"))
            for entry in engine.table.cases.values():
                assert set(open_estimates(entry.cache).values()) == {0}
