import subprocess
import sys
from dataclasses import asdict
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
    verify_prefix_alignment,
)
from streamalign.search import EAGER, LAZY, OpenSet, SearchExhausted
from tests.conftest import (
    SeededRandom,
    nets_and_traces,
    open_estimates,
    random_net_and_trace,
    reopening_net_and_trace,
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
    return {cache.spn.decode(s) for s in cache.g.keys() - set(cache.open.states())}


def run_incremental(model, trace, h_mode, refresh):
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
        outcomes.append(astar_inc(cache, h_mode, refresh))
        open_markings = {spn.decode(s) for s in cache.open.states()}
        assert closed_markings(cache) == set(log.markings) - open_markings
    return spn, outcomes


def test_open_set_orders_by_f_then_deeper_g_then_marking(n1):
    spn = build_spn(n1, ["a"])
    a, b, c = (spn.encode(Marking.of("tp0", p)) for p in ("p1", "p2", "p3"))
    open_set = OpenSet(spn.table)
    open_set.push(b, 2, 0)
    open_set.push(a, 1, 0)
    open_set.push(c, 1, 1)
    assert [spn.decode(s) for s in open_set.states()] == [
        Marking.of("tp0", p) for p in ("p1", "p2", "p3")
    ]
    assert open_set.pop()[0] == c  # same f, larger g wins
    assert open_set.pop()[0] == a
    assert open_set.pop()[0] == b
    # same f and g: the marking order decides, in which tp10 precedes tp2
    longer = build_spn(n1, ["b"] * 10)
    on_2, on_10 = (longer.encode(Marking.of(f"tp{k}", "p1")) for k in (2, 10))
    ties = OpenSet(longer.table)
    ties.push(on_2, 3, 1)
    ties.push(on_10, 3, 1)
    assert [ties.pop()[0] for _ in range(2)] == [on_10, on_2]


def test_open_set_decrease_key(n1):
    spn = build_spn(n1, ["a"])
    open_set = OpenSet(spn.table)
    m = spn.encode(Marking.of("tp0", "p1"))
    open_set.push(m, 5, 0)
    open_set.push(m, 2, 1)
    assert len(open_set) == 1
    popped, f, g = open_set.pop()
    assert (popped, f, g) == (m, 2, 1)
    with pytest.raises(IndexError):
        open_set.pop()


@pytest.mark.parametrize("refresh", [LAZY, EAGER])
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
    outcome = astar_inc(cache, "ilp", LAZY)
    goal = spn.encode(outcome.alignment.end_marking)
    assert goal in cache.open.states()
    assert outcome.alignment.end_marking not in closed_markings(cache)
    assert cache.invariants_ok()


def test_lazy_solves_no_more_lps_than_eager(n1):
    rng = SeededRandom(3)
    for _ in range(20):
        net, trace = random_net_and_trace(rng, max_len=6)
        _, lazy = run_incremental(net, trace, "ilp", LAZY)
        _, eager = run_incremental(net, trace, "ilp", EAGER)
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
        spn, outcomes = run_incremental(net, trace, "ilp", LAZY)
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
    astar_inc(cache, "ilp", LAZY)
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
        astar_inc(cache, "ilp", LAZY)
        for activity in trace[1:]:
            net = spn.petri_net()
            before = {m: tuple(enabled_transitions(net, m)) for m in closed_markings(cache)}
            old_goal = spn.goal_place
            extend_spn(spn, activity)
            net = spn.petri_net()
            for m, enabled_set in before.items():
                assert m.get(old_goal) == 0  # closed states never mark the frontier
                assert tuple(enabled_transitions(net, m)) == enabled_set
            astar_inc(cache, "ilp", LAZY)


def test_pop_count_bounds(n1):
    rng = SeededRandom(19)
    for _ in range(15):
        net, trace = random_net_and_trace(rng, max_len=5)
        for refresh, bound in ((EAGER, 1), (LAZY, 2)):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                pops: dict = {}
                original_pop = cache.open.pop

                def counting_pop():
                    item = original_pop()
                    pops[item[0]] = pops.get(item[0], 0) + 1
                    return item

                cache.open.pop = counting_pop
                outcome = astar_inc(cache, "ilp", refresh)
                cache.open.pop = original_pop
                allowed = bound + outcome.metrics.reopened
                assert max(pops.values()) <= allowed
                if refresh == EAGER:
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
                outcome = astar_inc(cache, "ilp", LAZY)
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
    # A zero estimate cannot change under extension, so neither refresh
    # policy recomputes one, and lazy refresh expands exactly what eager
    # refresh does.
    rng = SeededRandom(29)
    for _ in range(10):
        net, trace = random_net_and_trace(rng, max_len=5)
        runs = {}
        for refresh in (LAZY, EAGER):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            log = ExpansionLog(spn)
            runs[refresh] = []
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                log.markings.clear()
                outcome = astar_inc(cache, "zero", refresh)
                assert outcome.metrics.heuristic_recomputations == 0
                assert not cache.stale
                runs[refresh].append((tuple(log.markings), outcome.alignment.total_cost))
        assert runs[LAZY] == runs[EAGER]


OPTIMIZED_CHECK = """
import sys
import streamalign.occ as occ
import streamalign.search as search
from streamalign import CaseEntry, InvariantViolation, SearchCache, build_spn
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
    occ.occ_process_event(CaseEntry(), model, "a", None)
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
        spn, outcomes = run_incremental(net, trace, "ilp", LAZY)
        for k, outcome in enumerate(outcomes, start=1):
            assert verify_prefix_alignment(outcome.alignment, trace[:k], net)


def test_reopening_repairs_stale_key_misordering():
    # Crafted instance where an outdated open-set estimate overshoots its
    # refreshed value after an extension (estimates can shrink), pops get
    # mis-ordered and a state closes with a non-minimal cost.  The cheaper
    # route must reopen it, keeping the resumed search exact.  Found by
    # random search against the uniform-cost oracle.
    net, trace = reopening_net_and_trace()
    spn, outcomes = run_incremental(net, trace, "lp", LAZY)
    for k in range(1, len(trace) + 1):
        prefix_spn = build_spn(net, trace[:k])
        assert outcomes[k - 1].alignment.total_cost == dijkstra_oracle(
            prefix_spn, prefix_spn.initial
        )[0]
    assert sum(o.metrics.reopened for o in outcomes) >= 1


def test_a_cache_keeps_one_copy_of_each_piece_of_search_state():
    # Estimates live only in the open set's keys (f minus g), and a cache
    # with no goal yet is one whose first search counts its root as queued.
    assert SearchCache.__slots__ == ("spn", "root", "open", "g", "_p", "stale", "goal", "checkpoint")


# Summed heuristic_recomputations and reopened per (log, algorithm, heuristic):
# the 60-trace preset logs of tests/test_replay_digests.py, replayed
# round-robin, and the staged reopening instance, searched alone.
REFRESH_COUNTS = {
    ("choice-loop", "ias", "ilp"): (465, 0), ("choice-loop", "ias", "lp"): (465, 0),
    ("choice-loop", "iasr", "ilp"): (1365, 0), ("choice-loop", "iasr", "lp"): (1365, 0),
    ("choice-loop", "ias", "zero"): (0, 0), ("choice-loop", "iasr", "zero"): (0, 0),
    ("parallel-tau", "ias", "ilp"): (218, 0), ("parallel-tau", "ias", "lp"): (218, 0),
    ("parallel-tau", "iasr", "ilp"): (812, 0), ("parallel-tau", "iasr", "lp"): (812, 0),
    ("parallel-tau", "ias", "zero"): (0, 0), ("parallel-tau", "iasr", "zero"): (0, 0),
    ("reopening", LAZY, "ilp"): (23, 1), ("reopening", LAZY, "lp"): (23, 1),
    ("reopening", EAGER, "ilp"): (37, 0), ("reopening", EAGER, "lp"): (37, 0),
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
    net, trace = reopening_net_and_trace()
    for refresh in (LAZY, EAGER):
        for h_mode in ("ilp", "lp"):
            _, outcomes = run_incremental(net, trace, h_mode, refresh)
            counts["reopening", refresh, h_mode] = (
                sum(o.metrics.heuristic_recomputations for o in outcomes),
                sum(o.metrics.reopened for o in outcomes),
            )
    assert counts == REFRESH_COUNTS


@pytest.mark.parametrize("h_mode, refresh", [("magic", LAZY), ("zero", "bogus")])
def test_a_rejected_argument_leaves_the_cache_untouched(n1, h_mode, refresh):
    # The arguments are checked before the search pops the root or takes
    # its seed off the counters, so the next valid call runs as on a fresh
    # cache.
    def summary(outcome, cache):
        metrics = asdict(outcome.metrics)
        del metrics["wall_time"]
        return outcome.alignment, metrics, sorted(cache.g.items()), cache.open.states()

    for valid in (("zero", LAZY), ("ilp", LAZY), ("ilp", EAGER)):
        spn = build_spn(n1, ["a"])
        rejected = SearchCache(spn)
        with pytest.raises(ValueError, match="unknown"):
            astar_inc(rejected, h_mode, refresh)
        fresh = SearchCache(spn)
        assert summary(astar_inc(rejected, *valid), rejected) == summary(
            astar_inc(fresh, *valid), fresh
        )
    with pytest.raises(ValueError, match="unknown heuristic mode"):
        astar_scratch(build_spn(n1, ["a"]), "magic")


def test_search_exhausted_is_unreachable_on_product_nets(n1):
    # empty the open set by hand to show the guard exists
    spn = build_spn(n1, ["a"])
    cache = SearchCache(spn)
    cache.open.pop()
    with pytest.raises(SearchExhausted):
        astar_inc(cache, "ilp", LAZY)


def test_zero_searches_store_no_estimates(preset_models):
    # under zero every open key is its g alone, and nothing is ever stale
    for net, trace in nets_and_traces(preset_models, 53):
        for refresh in (LAZY, EAGER):
            spn = build_spn(net, trace[:1])
            cache = SearchCache(spn)
            for k, activity in enumerate(trace):
                if k:
                    extend_spn(spn, activity)
                astar_inc(cache, "zero", refresh)
                assert set(open_estimates(cache).values()) == {0} and not cache.stale
        for algorithm in ("ias", "iasr"):
            engine = StreamEngine(net, algorithm, "zero")
            engine.run(replay_log_as_stream([trace, trace[::-1]], "round-robin"))
            for entry in engine.table.cases.values():
                assert set(open_estimates(entry.cache).values()) == {0}
