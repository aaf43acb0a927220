import dataclasses

import pytest

from streamalign import (
    Marking,
    MoveKind,
    PrefixAlignment,
    StreamEngine,
    build_spn,
    move_cost,
    reconstruct,
    render_alignment,
    replay_log_as_stream,
    verify_prefix_alignment,
)
from streamalign.alignment import BrokenPredecessorChain
from streamalign.petri import fire_sequence
from streamalign.spn import MoveTable
from tests.conftest import nets_and_traces


@pytest.fixture
def decodes(monkeypatch):
    """The packed states :meth:`MoveTable.decode` is called on, in call order."""
    states = []
    real = MoveTable.decode
    monkeypatch.setattr(
        MoveTable, "decode", lambda table, state: states.append(state) or real(table, state)
    )
    return states


def test_move_costs(n1):
    spn = build_spn(n1, ["a", "b", "c"])
    t = spn.transitions
    assert move_cost(t["sync:tt1|t1"]) == 0
    assert move_cost(t["log:tt2"]) == 1
    assert move_cost(t["model:t2"]) == 0  # silent
    assert move_cost(t["model:t3"]) == 1  # visible


def test_reconstruct_shortest_path_of_running_example(n1):
    # chain: sync a, log b, sync c — the cost-1 alignment
    spn = build_spn(n1, ["a", "b", "c"])
    t = spn.transitions
    m0 = spn.initial
    m1 = Marking.of("tp1", "p2")
    m2 = Marking.of("tp2", "p2")
    m3 = Marking.of("tp3", "p3")
    s0, s1, s2, s3 = map(spn.encode, (m0, m1, m2, m3))
    preds = {
        s0: None,
        s1: t["sync:tt1|t1"],
        s2: t["log:tt2"],
        s3: t["sync:tt3|t4"],
    }
    # each entry's predecessor is the state minus the move's delta
    assert [s - preds[s].delta for s in (s1, s2, s3)] == [s0, s1, s2]
    alignment = reconstruct(preds, s3, s0, spn)
    assert alignment.total_cost == 1
    assert [mv.tid for mv in alignment.moves] == [
        "sync:tt1|t1",
        "log:tt2",
        "sync:tt3|t4",
    ]
    assert alignment.end_marking == m3
    assert verify_prefix_alignment(alignment, ["a", "b", "c"], n1)


def test_reconstruct_goal_equals_initial(n1):
    spn = build_spn(n1, ["a"])
    root = spn.encode(spn.initial)
    alignment = reconstruct({root: None}, root, root, spn)
    assert alignment.moves == ()
    assert alignment.total_cost == 0
    assert alignment.end_marking == spn.initial


def test_reconstruct_broken_chain(n1):
    spn = build_spn(n1, ["a"])
    root = spn.encode(spn.initial)
    with pytest.raises(BrokenPredecessorChain):
        reconstruct({}, root, root, spn)
    # a chain that ends at the initial state when the root is another one
    goal = spn.encode(Marking.of("tp1", "p2"))
    preds = {goal: spn.move("sync:tt1|t1"), root: None}
    assert reconstruct(preds, goal, root, spn).end_marking == Marking.of("tp1", "p2")
    with pytest.raises(BrokenPredecessorChain):
        reconstruct(preds, goal, spn.encode(Marking.of("tp0", "p2")), spn)


def test_third_figure_alignment_costs_four(n1):
    # (a,>>), (>>,t2), (b,>>), (>>,t3), (c,>>)
    spn = build_spn(n1, ["a", "b", "c"])
    t = spn.transitions
    moves = tuple(
        t[tid]
        for tid in ["log:tt1", "model:t2", "log:tt2", "model:t3", "log:tt3"]
    )
    total = sum(m.cost for m in moves)
    assert total == 4
    alignment = PrefixAlignment(moves, total, Marking.of("tp3", "p3"))
    assert verify_prefix_alignment(alignment, ["a", "b", "c"], n1)


def test_verify_rejects_projection_mismatch(n1):
    spn = build_spn(n1, ["a", "b", "c"])
    t = spn.transitions
    moves = (t["sync:tt1|t1"], t["log:tt2"], t["sync:tt3|t4"])
    alignment = PrefixAlignment(moves, 1, Marking.of("tp3", "p3"))
    assert not verify_prefix_alignment(alignment, ["a", "c"], n1)


def test_verify_rejects_unfirable_model_projection(n1):
    spn = build_spn(n1, ["b"])
    t = spn.transitions
    # model b before anything marks p2
    moves = (t["sync:tt1|t3"],)
    alignment = PrefixAlignment(moves, 0, Marking.of("tp1", "p3"))
    assert not verify_prefix_alignment(alignment, ["b"], n1)


def test_verify_rejects_wrong_total(n1):
    spn = build_spn(n1, ["a"])
    t = spn.transitions
    alignment = PrefixAlignment((t["log:tt1"],), 0, Marking.of("tp1", "p1"))
    assert not verify_prefix_alignment(alignment, ["a"], n1)


def test_render_two_rows(n1):
    spn = build_spn(n1, ["a", "b", "c"])
    t = spn.transitions
    moves = (t["sync:tt1|t1"], t["log:tt2"], t["sync:tt3|t4"])
    alignment = PrefixAlignment(moves, 1, Marking.of("tp3", "p3"))
    text = render_alignment(alignment)
    top, bottom = text.splitlines()
    assert top.split("|")[1:-1] == [" a  ", " b  ", " c  "]
    assert bottom.split("|")[1:-1] == [" t1 ", " >> ", " t4 "]


def test_machine_records(n1):
    spn = build_spn(n1, ["a"])
    t = spn.transitions
    alignment = PrefixAlignment((t["sync:tt1|t1"],), 0, Marking.of("tp1", "p2"))
    assert alignment.to_records() == [
        {"kind": "sync", "activity": "a", "transition": "t1"}
    ]


@pytest.mark.parametrize("algorithm", ["ias", "iasr", "occ", "occ-w1"])
def test_emitted_alignments_decode_their_end_only_when_read(preset_models, decodes, algorithm):
    replays = []
    for model, trace in nets_and_traces(preset_models, 71):
        engine = StreamEngine(model, algorithm, "ilp")
        results = engine.run(replay_log_as_stream([trace]))
        (entry,) = engine.table.cases.values()
        replays.append((entry.spn, results))
    assert decodes == []
    alignments = 0
    for spn, results in replays:
        net = spn.petri_net()
        for r in results:
            # the reference end: the moves fired over markings from the initial one
            reached = fire_sequence(net, spn.initial, [mv.tid for mv in r.alignment.moves])
            assert r.alignment.end_marking == reached
            assert r.alignment.end_marking is r.alignment.end_marking
        alignments += len({id(r.alignment) for r in results})
    assert len(decodes) == alignments


def test_a_packed_end_equals_the_same_marking(n1, decodes):
    spn = build_spn(n1, ["a", "b"])
    t = spn.transitions
    moves = (t["sync:tt1|t1"], t["model:t2"], t["log:tt2"])
    goal, other = spn.encode(Marking.of("tp2", "p3")), spn.encode(Marking.of("tp2", "p2"))
    packed = PrefixAlignment.from_state(moves, 1, goal, spn.table)
    marked = PrefixAlignment(moves, 1, Marking.of("tp2", "p3"))
    assert decodes == []
    assert packed == marked and marked == packed
    assert hash(packed) == hash(marked)
    assert packed != PrefixAlignment(moves, 1, Marking.of("tp2", "p2"))
    assert packed != PrefixAlignment.from_state(moves, 1, other, spn.table)
    assert decodes == [goal, other]  # each end decoded once


@pytest.mark.parametrize("name", ["moves", "total_cost", "end_marking", "end_state"])
def test_alignments_cannot_be_assigned(n1, decodes, name):
    spn = build_spn(n1, ["a"])
    move = spn.transitions["sync:tt1|t1"]
    goal = spn.encode(Marking.of("tp1", "p2"))
    packed = PrefixAlignment.from_state((move,), 0, goal, spn.table)
    marked = PrefixAlignment((move,), 0, Marking.of("tp1", "p2"))
    for alignment in (packed, marked):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(alignment, name, getattr(marked, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(alignment, name)
    assert decodes == []  # a refused assignment decodes nothing
    assert packed.end_marking is packed.end_marking == Marking.of("tp1", "p2")
    assert (packed.moves, packed.total_cost, packed.end_state) == ((move,), 0, goal)
    assert decodes == [goal]
