import pytest

from streamalign import (
    Event,
    Marking,
    MoveKind,
    StreamEngine,
    WorkflowNet,
    build_spn,
    enabled,
    enabled_transitions,
    enumerate_state_space,
    extend_spn,
    fire,
    move_cost,
)
from streamalign.petri import NetDefinitionError
from streamalign.spn import Move, MoveTable, trace_place
from tests.conftest import SeededRandom, nets_and_traces, random_net_and_trace


def kinds(spn):
    out = {MoveKind.LOG: 0, MoveKind.MODEL: 0, MoveKind.SYNC: 0}
    for t in spn.transitions.values():
        out[t.kind] += 1
    return out


def structure(spn):
    """The product as a net: places, transitions, arcs, labels and initial
    marking (a move id carries its kind)."""
    net = spn.petri_net()
    return net.places, net.transitions, net.arcs, net.labels, net.initial


def test_spn_rejects_empty_and_silent_traces(n1):
    with pytest.raises(ValueError):
        build_spn(n1, [])
    with pytest.raises(ValueError):
        build_spn(n1, ["a", None])


def test_spn_of_n1_abc_matches_figure(n1):
    spn = build_spn(n1, ["a", "b", "c"])
    assert len(spn.petri_net().places) == 7
    assert len(spn.transitions) == 10
    counts = kinds(spn)
    assert counts[MoveKind.LOG] == 3
    assert counts[MoveKind.MODEL] == 4
    assert counts[MoveKind.SYNC] == 3
    sync_pairs = {
        (t.trace_transition, t.model_transition)
        for t in spn.transitions.values()
        if t.kind is MoveKind.SYNC
    }
    assert sync_pairs == {("tt1", "t1"), ("tt2", "t3"), ("tt3", "t4")}
    assert spn.initial == Marking.of("tp0", "p1")
    assert spn.goal_place == "tp3"


def test_spn_unmatched_label_has_no_syncs(n1):
    spn = build_spn(n1, ["z"])
    counts = kinds(spn)
    assert counts == {MoveKind.LOG: 1, MoveKind.MODEL: 4, MoveKind.SYNC: 0}
    assert len(spn.transitions) == 5


def test_spn_duplicate_model_labels_multiply_syncs():
    net = WorkflowNet(
        ["s", "e"],
        ["u1", "u2"],
        [("s", "u1"), ("u1", "e"), ("s", "u2"), ("u2", "e")],
        {"u1": "a", "u2": "a"},
        Marking.of("s"),
        Marking.of("e"),
    )
    spn = build_spn(net, ["a"])
    assert kinds(spn)[MoveKind.SYNC] == 2


def test_spn_rejects_invalid_models(n1):
    broken = WorkflowNet(
        n1.places, n1.transitions, set(n1.arcs) - {("t3", "p3")},
        n1.labels, n1.initial, n1.final,
    )
    with pytest.raises(NetDefinitionError):
        build_spn(broken, ["a"])


def test_spn_rejects_reserved_model_ids():
    net = WorkflowNet(
        ["tp0", "e"], ["u"], [("tp0", "u"), ("u", "e")], {"u": "a"},
        Marking.of("tp0"), Marking.of("e"),
    )
    with pytest.raises(NetDefinitionError):
        build_spn(net, ["a"])


def tids(block):
    return tuple(m.tid for m in block)


def test_extend_matches_figure_delta(n1):
    spn = build_spn(n1, ["a"])
    block = extend_spn(spn, "b")
    assert set(tids(block)) == {"log:tt2", "sync:tt2|t3"}
    assert spn.n == 2
    assert spn.goal_place == "tp2"


def test_extend_by_unmatched_label_adds_log_only(n1):
    spn = build_spn(n1, ["a"])
    assert tids(extend_spn(spn, "z")) == ("log:tt2",)


def test_extend_returns_the_tables_block_and_grows_the_goal(n1):
    spn = build_spn(n1, ["a"])
    for activity in ["b", "z", "c"]:
        old_places = set(spn.petri_net().places)
        block = extend_spn(spn, activity)
        assert block is spn.table.extension(spn.n, spn.trace[-1])[0]
        assert all(spn.move(m.tid) is m for m in block)
        assert set(spn.petri_net().places) - old_places == {spn.goal_place}
        assert spn.goal_place == f"tp{spn.n}"
        assert all(m.pre[0] == f"tp{spn.n - 1}" and m.post[0] == spn.goal_place for m in block)


def test_extend_rejects_silent(n1):
    spn = build_spn(n1, ["a"])
    with pytest.raises(ValueError):
        extend_spn(spn, None)


def test_build_equals_extend_structurally(n1):
    rng = SeededRandom(11)
    for _ in range(50):
        net, trace = random_net_and_trace(rng, max_len=6)
        if len(trace) < 2:
            continue
        grown = build_spn(net, trace[:1])
        for activity in trace[1:]:
            extend_spn(grown, activity)
        direct = build_spn(net, trace)
        assert structure(grown) == structure(direct)


def test_extension_is_append_only(n1):
    spn = build_spn(n1, ["a", "b"])
    net = spn.petri_net()
    before = {t: (net.preset(t), net.postset(t)) for t in net.transitions}
    extend_spn(spn, "c")
    net = spn.petri_net()
    for t, (pre, post) in before.items():
        assert net.preset(t) == pre
        assert net.postset(t) == post


def test_new_trace_place_has_no_consumers_until_next_extension(n1):
    # no transition can leave a marking that holds the newest trace place token
    spn = build_spn(n1, ["a"])
    extend_spn(spn, "b")
    new_place = spn.goal_place
    assert spn.petri_net().place_postset(new_place) == ()
    extend_spn(spn, "c")
    assert spn.petri_net().place_postset(new_place) != ()
    assert spn.petri_net().place_postset(spn.goal_place) == ()


def test_frontier_growth_two_step(n1):
    # markings over the place set from two extensions back never enable
    # transitions introduced by the latest extension
    rng = SeededRandom(23)
    for _ in range(20):
        net, trace = random_net_and_trace(rng, max_len=4)
        spn = build_spn(net, trace)
        old_places = set(spn.petri_net().places)
        markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, bound=5000)
        extend_spn(spn, trace[0])
        newest = set(tids(extend_spn(spn, trace[-1])))
        grown = spn.petri_net()
        enabled_before_sets = {m: set(enabled_transitions(grown, m)) for m in markings}
        for m, now_enabled in enabled_before_sets.items():
            assert set(m.places()) <= old_places
            assert not (now_enabled & newest)


def test_one_token_in_trace_part_everywhere(n1):
    spn = build_spn(n1, ["a", "b", "c"])
    trace_places = {trace_place(i) for i in range(spn.n + 1)}
    markings, _ = enumerate_state_space(spn.petri_net(), spn.initial, bound=5000)
    for m in markings:
        assert sum(c for p, c in m.items if p in trace_places) == 1


def test_candidate_moves_are_exactly_the_enabled_moves(preset_models):
    # The search tries only candidate_moves(s) of a packed state s; among
    # them its mask test must find every enabled move, in the registration
    # order of the full scan (which fixes the search's ties), and adding a
    # move's delta must fire it.  The table is shared with a longer case, so
    # it knows trace places beyond this net.
    for net, trace in nets_and_traces(preset_models, 31):
        table = MoveTable(net)
        build_spn(net, trace + trace, table)
        spn = build_spn(net, trace[:1], table)
        for k in range(1, len(trace) + 1):
            if k > 1:
                extend_spn(spn, trace[k - 1])
            view, moves = spn.petri_net(), spn.transitions.values()
            markings, _ = enumerate_state_space(view, spn.initial, bound=5000)
            for m in markings:
                s = spn.encode(m)
                marked = ((s | table.guards) - table.lows) & table.guards
                tried = [r for r in spn.candidate_moves(s) if marked & r.need == r.need]
                assert tried == [r for r in moves if enabled(view, m, r.tid)]
                for r in tried:
                    assert spn.decode(s + r.delta) == fire(view, m, r.tid)


def test_cases_with_the_same_activity_share_records(n1):
    engine = StreamEngine(n1, "ias", "ilp")
    engine.run([Event("1", "a", 1), Event("2", "c", 2), Event("1", "b", 3), Event("2", "b", 4)])
    one, two = engine.table.cases["1"].spn, engine.table.cases["2"].spn
    moves = engine.moves
    for spn in (one, two):
        goal = spn.encode(Marking.of(spn.goal_place))
        assert spn.candidate_moves(goal) is moves.model_moves
    block = moves.extension(2, "b")[0]
    assert len(block) == 2  # log move and the synchronous move on t3
    for a in block:
        assert one.move(a.tid) is two.move(a.tid) is a
    first_a, first_c = moves.extension(1, "a")[0], moves.extension(1, "c")[0]
    assert all(one.move(a.tid) is a for a in first_a)
    assert all(two.move(c.tid) is c for c in first_c)
    assert not set(map(id, first_a)) & set(map(id, first_c))


def test_shared_table_builds_the_same_net(preset_models):
    for net, trace in nets_and_traces(preset_models, 37):
        table = MoveTable(net)
        build_spn(net, list(reversed(trace)), table)  # other blocks come first
        shared = build_spn(net, trace[:1], table)
        alone = build_spn(net, trace[:1])
        assert structure(shared) == structure(alone)
        for activity in trace[1:]:
            assert extend_spn(shared, activity) == extend_spn(alone, activity)
            assert structure(shared) == structure(alone)
            assert list(shared.transitions) == list(alone.transitions)


def reserved_id_net():
    return WorkflowNet(
        ["tp0", "e"], ["u"], [("tp0", "u"), ("u", "e")], {"u": "a"},
        Marking.of("tp0"), Marking.of("e"),
    )


def not_a_workflow_net(n1):
    return WorkflowNet(
        n1.places, n1.transitions, set(n1.arcs) - {("t3", "p3")},
        n1.labels, n1.initial, n1.final,
    )


@pytest.mark.parametrize("make", [reserved_id_net, not_a_workflow_net])
def test_bad_models_are_rejected_with_or_without_an_engine(make, n1):
    net = make() if make is reserved_id_net else make(n1)
    with pytest.raises(ValueError):
        StreamEngine(net, "ias", "ilp")
    with pytest.raises(NetDefinitionError):
        build_spn(net, ["a"])
    with pytest.raises(NetDefinitionError):
        MoveTable(net)


def test_table_of_another_model_is_refused(n1, trap):
    with pytest.raises(ValueError):
        build_spn(n1, ["a"], MoveTable(trap))


def test_moves_of_two_tables_compare_by_value(preset_models):
    for net, trace in nets_and_traces(preset_models, 41):
        one, two = MoveTable(net), MoveTable(net)
        assert one.model_moves == two.model_moves
        assert list(map(hash, one.model_moves)) == list(map(hash, two.model_moves))
        for i, activity in enumerate(trace, start=1):
            a, b = one.extension(i, activity)[0], two.extension(i, activity)[0]
            assert a is not b and a == b
            assert all(x is not y and hash(x) == hash(y) for x, y in zip(a, b, strict=True))
            assert a != two.extension(i + 1, activity)[0]
            assert a[0] != two.extension(i, activity + "'")[0][0]


def test_every_move_carries_its_standard_cost(preset_models):
    for net, trace in nets_and_traces(preset_models, 43):
        spn = build_spn(net, trace)
        moves = spn.transitions.values()
        assert all(m.cost == move_cost(m) for m in moves)
        assert {m.cost for m in moves if m.kind is MoveKind.SYNC} <= {0}
        assert {m.cost for m in moves if m.kind is MoveKind.LOG} <= {1}


def test_the_moves_are_derived_from_the_tables_blocks(preset_models):
    # A net on a shared table must see only its own positions, so a second
    # net with the reversed trace fills the table with other blocks first.
    for net, trace in nets_and_traces(preset_models, 47):
        table = MoveTable(net)
        build_spn(net, list(reversed(trace)) + trace, table)
        spn = build_spn(net, trace[:1], table)
        for activity in trace[1:] + [None]:
            reference = list(table.model_moves) + [
                m for i, a in enumerate(spn.trace, start=1) for m in table.extension(i, a)[0]
            ]
            assert list(spn.transitions.items()) == [(m.tid, m) for m in reference]
            assert all(spn.move(m.tid) is m for m in reference)
            assert repr(spn) == f"SyncProductNet(n={spn.n}, |T^S|={len(reference)})"
            n = spn.n
            unknown = [
                f"log:tt{n + 1}", "log:tt0", f"log:tt0{n}", f"sync:tt{n + 1}|{net.transitions[0]}",
                f"sync:tt{n}|nothing", "model:nothing", f"tt{n}", "log:tt", "",
            ]
            for tid in unknown:
                with pytest.raises(KeyError):
                    spn.move(tid)
            # no map of moves is kept per net
            for value in vars(spn).values():
                assert not (isinstance(value, dict) and any(
                    isinstance(v, Move) for v in value.values()
                ))
            if activity is not None:
                extend_spn(spn, activity)


def test_the_petri_net_view_has_every_moves_arcs(preset_models):
    for net, trace in nets_and_traces(preset_models, 53):
        spn = build_spn(net, trace)
        view, moves = spn.petri_net(), spn.transitions
        assert view.places == tuple(sorted([trace_place(i) for i in range(spn.n + 1)] + list(net.places)))
        assert view.transitions == tuple(sorted(moves))
        assert view.arcs == {(p, m.tid) for m in moves.values() for p in m.pre} | {
            (m.tid, p) for m in moves.values() for p in m.post
        }
        for m in moves.values():
            assert view.label(m.tid) == (m.model_label if m.kind is MoveKind.MODEL else m.activity)
        assert view.initial == spn.initial and view.final == Marking.of(spn.goal_place)


def test_the_petri_net_view_refuses_a_model_place_named_as_a_move():
    net = WorkflowNet(
        ["s", "model:u", "e"], ["u", "v"], [("s", "u"), ("u", "model:u"), ("model:u", "v"), ("v", "e")],
        {"u": "a", "v": None}, Marking.of("s"), Marking.of("e"),
    )
    spn = build_spn(net, ["a"])
    assert spn.move("model:u").pre == ("s",)
    with pytest.raises(NetDefinitionError):
        spn.petri_net()
