import pytest

import streamalign.search as search
from streamalign import (
    Event,
    EventError,
    EventResult,
    CaseEntry,
    Marking,
    SearchCache,
    StreamEngine,
    astar_inc,
    build_spn,
    dijkstra_oracle,
    extend_spn,
    generate_log,
    occ_process_event,
    parse_algorithm,
    replay_log_as_stream,
)
from streamalign.petri import StateSpaceTooLarge
from streamalign.search import EAGER, LAZY, memo_key
from streamalign.spn import FIELD_MAX
from tests.conftest import SeededRandom, random_net_and_trace


def costs_by_case(results):
    grouped = {}
    for r in results:
        grouped.setdefault(r.case_id, []).append(r.cost)
    return grouped


def test_running_example_emits_0_0_1(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    results = engine.run(replay_log_as_stream([["a", "b", "c"]]))
    assert [r.cost for r in results] == [0, 0, 1]


def test_interleaved_cases_evolve_independently(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    events = [Event("1", "a", 1), Event("2", "b", 2), Event("1", "b", 3)]
    results = engine.run(events)
    assert costs_by_case(results) == {"1": [0, 0], "2": [0]}
    assert engine.table.case_count() == 2
    entry = engine.table.cases["1"]
    assert entry.spn.trace == ["a", "b"]  # stored trace mirrors arrivals in order


def test_fresh_case_repeats_first_event_result(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    first = engine.process_event(Event("1", "a", 1))
    second = engine.process_event(Event("2", "a", 2))
    assert first.cost == second.cost
    assert first.alignment.to_records() == second.alignment.to_records()


def test_rejected_event_keeps_engine_running(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    bad = engine.process_event(Event("1", "", 1))
    assert isinstance(bad, EventError)
    good = engine.process_event(Event("1", "a", 2))
    assert isinstance(good, EventResult)
    assert good.cost == 0


def test_unknown_activity_gets_log_move(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    result = engine.process_event(Event("1", "zz", 1))
    assert result.cost == 1
    assert result.alignment.to_records()[0]["kind"] == "log"


def test_engine_requires_wfnet(n1):
    from streamalign import Marking, WorkflowNet

    broken = WorkflowNet(["p"], [], [], {}, Marking.of("p"), Marking.of("p"))
    with pytest.raises(ValueError):
        StreamEngine(broken, "ias", "ilp")


def test_replay_sequential_matches_construction():
    events = replay_log_as_stream([["a", "b", "c"], ["b", "c", "d"]])
    assert [(e.case_id, e.activity) for e in events] == [
        ("1", "a"), ("1", "b"), ("1", "c"), ("2", "b"), ("2", "c"), ("2", "d"),
    ]
    assert [e.index for e in events] == [1, 2, 3, 4, 5, 6]


def test_replay_single_trace():
    events = replay_log_as_stream([["x", "y"]])
    assert [(e.case_id, e.activity) for e in events] == [("1", "x"), ("1", "y")]


def test_replay_round_robin():
    events = replay_log_as_stream([["a", "b"], ["c"]], order="round-robin")
    assert [(e.case_id, e.activity) for e in events] == [("1", "a"), ("2", "c"), ("1", "b")]


def test_replay_rejects_empty_trace():
    with pytest.raises(ValueError):
        replay_log_as_stream([[]])


def test_case_isolation_under_interleaving(n1):
    rng = SeededRandom(43)
    for _ in range(10):
        net, _ = random_net_and_trace(rng)
        alphabet = list(net.visible_alphabet())
        log = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 4))] for _ in range(3)
        ]
        sequential = StreamEngine(net, "ias", "ilp").run(replay_log_as_stream(log))
        interleaved = StreamEngine(net, "ias", "ilp").run(
            replay_log_as_stream(log, order="round-robin")
        )
        assert costs_by_case(sequential) == costs_by_case(interleaved)


def test_prefix_costs_never_decrease(n1):
    rng = SeededRandom(47)
    for _ in range(15):
        net, trace = random_net_and_trace(rng, max_len=6)
        engine = StreamEngine(net, "ias", "ilp")
        results = engine.run(replay_log_as_stream([trace]))
        costs = [r.cost for r in results]
        assert all(b >= a for a, b in zip(costs, costs[1:]))
        for k in range(1, len(trace) + 1):
            spn = build_spn(net, trace[:k])
            assert costs[k - 1] == dijkstra_oracle(spn, spn.initial)[0]


def test_memory_gauge_grows_with_cases(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    sizes = [engine.table.cached_markings()]
    for case in range(1, 4):
        engine.process_event(Event(str(case), "a", case))
        sizes.append(engine.table.cached_markings())
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0] == 0
    assert sizes[-1] == sum(len(e.cache.g) for e in engine.table.cases.values())


@pytest.mark.parametrize("algorithm", ["ias", "occ-w1"])
def test_case_entry_holds_net_then_cache_or_last_alignment(n1, algorithm):
    engine = StreamEngine(n1, algorithm, "ilp")
    log = [["a", "b", "c"], ["c", "b"], ["b"]]
    last = {r.case_id: r.alignment for r in engine.run(replay_log_as_stream(log, "round-robin"))}
    for case_id, entry in engine.table.cases.items():
        assert entry.spn is not None
        if algorithm == "ias":
            assert entry.cache.spn is entry.spn and entry.alignment is None
        else:
            assert entry.cache is None and entry.alignment is last[case_id]
    if algorithm == "occ-w1":
        assert engine.table.cached_markings() == 0


def test_event_record_field_set(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    record = engine.process_event(Event("1", "a", 1)).to_record()
    assert set(record) == {"case", "event_index", "cost", "alignment", "queued", "visited", "lps"}


def test_occ_window_algorithms_parse():
    assert parse_algorithm("ias") == ("ias", None)
    assert parse_algorithm("iasr") == ("iasr", None)
    assert parse_algorithm("occ") == ("occ", None)
    assert parse_algorithm("occ-w10") == ("occ", 10)
    with pytest.raises(ValueError):
        parse_algorithm("occ-w0")
    with pytest.raises(ValueError):
        parse_algorithm("bogus")


# -- the engine's estimate memo ------------------------------------------------

NOISE = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}


def memoless_replay(model, events, algorithm, heuristic):
    """Per-event outcomes of the engine's searches, called without a memo."""
    kind, window = parse_algorithm(algorithm)
    cases, outcomes = {}, []
    for event in events:
        if kind == "occ":
            entry = cases.setdefault(event.case_id, CaseEntry())
            alignment, outcome = occ_process_event(entry, model, event.activity, window, heuristic)
        else:
            if event.case_id not in cases:
                spn = build_spn(model, [event.activity])
                cases[event.case_id] = (spn, SearchCache(spn))
            else:
                extend_spn(cases[event.case_id][0], event.activity)
            spn, cache = cases[event.case_id]
            refresh = LAZY if kind == "ias" else EAGER
            outcome = astar_inc(cache, heuristic, refresh)
            alignment = outcome.alignment
        outcomes.append((alignment, outcome.metrics))
    return outcomes


@pytest.mark.parametrize("heuristic", ["lp", "ilp"])
@pytest.mark.parametrize("algorithm", ["ias", "iasr", "occ-w1"])
def test_memo_changes_nothing_but_the_programs_solved(preset_models, algorithm, heuristic):
    for seed, model in enumerate(preset_models.values(), start=11):
        events = replay_log_as_stream(generate_log(model, 12, NOISE, max_len=8, seed=seed))
        engine = StreamEngine(model, algorithm, heuristic)
        with_memo = engine.run(events)
        without = memoless_replay(model, events, algorithm, heuristic)
        for result, (alignment, metrics) in zip(with_memo, without):
            assert result.cost == alignment.total_cost
            assert result.alignment.to_records() == alignment.to_records()
            for counter in ("queued", "visited", "reopened", "heuristic_recomputations"):
                assert getattr(result.metrics, counter) == getattr(metrics, counter)
            assert result.metrics.lps_solved <= metrics.lps_solved
        assert engine.memo
        assert sum(r.metrics.lps_solved for r in with_memo) < sum(m.lps_solved for _, m in without)


class AuditedMemo(dict):
    """A memo that never hits: each would-be hit is solved again and compared."""

    hits = 0

    def get(self, key, default=None):
        self.hits += key in self
        return default

    def __setitem__(self, key, value):
        if key in self:
            assert self[key] == value, f"memo holds {self[key]} for {key}, solved {value}"
        super().__setitem__(key, value)


@pytest.mark.parametrize("algorithm", ["ias", "occ-w1"])
def test_memo_hits_equal_freshly_solved_values(preset_models, algorithm):
    for seed, model in enumerate(preset_models.values(), start=21):
        for heuristic in ("lp", "ilp"):
            engine = StreamEngine(model, algorithm, heuristic)
            engine.memo = AuditedMemo()
            engine.run(replay_log_as_stream(generate_log(model, 12, NOISE, seed=seed)))
            assert engine.memo.hits > 0


def test_engines_share_no_memo_entries(preset_models):
    model = preset_models["choice-loop"]
    events = replay_log_as_stream(generate_log(model, 5, NOISE, seed=31))
    first, second = StreamEngine(model), StreamEngine(model)
    first.run(events)
    assert first.memo and not second.memo
    second.run(events)
    assert first.memo.keys() == second.memo.keys() and first.memo is not second.memo


def test_memo_stays_within_its_bound(preset_models, monkeypatch):
    model = preset_models["parallel-tau"]
    events = replay_log_as_stream(generate_log(model, 10, NOISE, seed=37))
    unbounded = StreamEngine(model).run(events)
    monkeypatch.setattr(search, "MEMO_ENTRIES", 4)
    engine = StreamEngine(model)
    sizes = []
    for event, expected in zip(events, unbounded):
        result = engine.process_event(event)
        sizes.append(len(engine.memo))
        assert result.alignment.to_records() == expected.alignment.to_records()
        assert result.metrics.visited == expected.metrics.visited
    assert max(sizes) == 4


def test_marking_without_a_trace_token_still_raises(n1):
    spn = build_spn(n1, ["a"])
    model_only = Marking.of(*n1.initial.places())
    for marking in (model_only, Marking.of("tp0", "tp1", "p1")):
        with pytest.raises(ValueError, match="trace token"):
            spn.encode(marking)
    p1 = spn.encode(Marking.of("tp0", "p1")) - spn.encode(Marking.of("tp0"))
    assert memo_key(spn, spn.encode(Marking.of("tp0", "p1")), "ilp") == ("ilp", p1, ("a",))
    assert memo_key(spn, spn.encode(Marking.of("tp1", "p1")), "ilp") == ("ilp", p1, ())


def test_zero_heuristic_asks_for_no_estimate(preset_models, monkeypatch):
    model = preset_models["choice-loop"]
    events = replay_log_as_stream(generate_log(model, 10, NOISE, seed=41))
    exact = [r.cost for r in StreamEngine(model, "ias", "ilp").run(events)]
    calls = []
    real = search.estimate
    monkeypatch.setattr(search, "estimate", lambda *args: calls.append(args) or real(*args))
    for algorithm in ("ias", "iasr", "occ"):
        results = StreamEngine(model, algorithm, "zero").run(events)
        assert [r.cost for r in results] == exact
        assert sum(r.metrics.lps_solved for r in results) == 0
    assert calls == []


@pytest.mark.parametrize("algorithm", ["ias", "iasr", "occ-w1"])
def test_alignments_hold_the_tables_own_moves(preset_models, algorithm):
    noise = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}
    for model in preset_models.values():
        log = generate_log(model, 20, noise, max_len=8, seed=11)
        engine = StreamEngine(model, algorithm, "ilp")
        results = engine.run(replay_log_as_stream(log, order="round-robin"))
        table = {id(r) for r in engine.moves.model_moves}
        for trace in log:
            for i, activity in enumerate(trace, start=1):
                table.update(map(id, engine.moves.position(i, activity)))
        moves = [mv for r in results for mv in r.alignment.moves]
        assert moves
        assert all(id(mv) in table for mv in moves)


@pytest.mark.parametrize("heuristic", ["zero", "ilp"])
@pytest.mark.parametrize("algorithm", ["ias", "iasr", "occ", "occ-w1"])
def test_an_unbounded_net_raises_instead_of_searching_forever(unbounded, algorithm, heuristic):
    # The zero-cost markings [p, q^c, sink^b, tp0] sort before the goal
    # [sink, tp1] for every c and b, so the search never reaches the goal;
    # the first count to pass the packed field's limit is sink's.
    engine = StreamEngine(unbounded, algorithm, heuristic)
    with pytest.raises(StateSpaceTooLarge, match=f"place 'sink' would hold more than {FIELD_MAX}"):
        engine.process_event(Event("1", "a", 1))
