"""The benchmark's oracle and validity check accept the program's outputs
and reject off-by-one costs and invalid alignments."""

import pytest

from oracle import Model
from run import Replay
from streamalign import EventResult, PrefixAlignment, build_spn, dijkstra_oracle
from streamalign.alignment import make_move
from streamalign.generator import PRESETS, generate_log
from workloads import NOISE, Workload

LOOP = ("register", "check", "approve", "check", "archive")


def replayed(algorithm="ias"):
    cases = (("choice-loop", LOOP), ("parallel-tau", ("bill", "ship", "ship", "pay")))
    replay = Replay(Workload("small", algorithm, "ilp", "round-robin", cases))
    return replay, replay.round().outcomes


def with_alignment(outcome, moves, cost):
    alignment = PrefixAlignment(tuple(moves), cost, outcome.alignment.end_marking)
    return EventResult(outcome.case_id, outcome.event_index, outcome.activity, alignment,
                       outcome.metrics)


def record(kind, activity, transition):
    return {"kind": kind, "activity": activity, "transition": transition}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_prefix_costs_match_the_programs_own_oracle(name):
    model = PRESETS[name]()
    oracle = Model(model)
    for trace in generate_log(model, 12, NOISE, max_len=6, seed=5):
        expected = []
        for k in range(1, len(trace) + 1):
            spn = build_spn(model, trace[:k])
            expected.append(dijkstra_oracle(spn, spn.initial)[0])
        assert oracle.prefix_costs(trace) == expected


@pytest.mark.parametrize("algorithm", ["ias", "iasr", "occ", "occ-w1"])
def test_the_programs_outputs_pass(algorithm):
    replay, outcomes = replayed(algorithm)
    tally = replay.check(outcomes)
    assert tally["wrong"] == tally["failed"] == 0, tally["errors"]
    assert any(o.cost > 0 for o in outcomes)


def test_oracle_rejects_a_valid_alignment_one_dearer_than_the_optimum():
    replay, outcomes = replayed()
    first = outcomes[0]  # case 1 event 1: "register", optimally one synchronous move
    assert first.cost == 0
    log_move = make_move(build_spn(PRESETS["choice-loop"](), ["register"]).move("log:tt1"))
    dearer = with_alignment(first, [log_move], 1)
    model = replay.models["choice-loop"]
    assert model.alignment_error(["register"], dearer.alignment.to_records(), 1) is None
    tally = replay.check([dearer] + outcomes[1:])
    assert tally["wrong"] == 1 and "oracle 0" in tally["errors"][0]


@pytest.mark.parametrize("delta", [-1, 1])
def test_validity_check_rejects_a_reported_cost_off_by_one(delta):
    replay, outcomes = replayed()
    k = next(k for k, o in enumerate(outcomes) if o.cost > 0)
    off = with_alignment(outcomes[k], outcomes[k].alignment.moves, outcomes[k].cost + delta)
    tally = replay.check(outcomes[:k] + [off] + outcomes[k + 1:])
    assert tally["wrong"] == 1 and "differs from the moves' cost" in tally["errors"][0]


def test_window_overestimates_are_allowed_but_underestimates_are_not():
    replay, outcomes = replayed("occ-w1")
    k = next(k for k, o in enumerate(outcomes) if o.cost > 0)
    cheaper = with_alignment(outcomes[k], outcomes[k].alignment.moves, outcomes[k].cost - 1)
    assert replay.check(outcomes[:k] + [cheaper] + outcomes[k + 1:])["wrong"] == 1


@pytest.mark.parametrize(
    "records, cost, reason",
    [
        ([record("sync", "register", "t_reg"), record("sync", "approve", "t_ok")], 0,
         "log projection"),  # the prefix is register, check
        ([record("sync", "register", "t_reg"), record("sync", "check", "t_chk")], 0,
         "not enabled"),  # check needs approve or reject first
        ([record("sync", "register", "t_reg"), record("sync", "check", "t_ok")], 0,
         "pairs"),  # synchronous move with another label
        ([record("sync", "register", "t_reg"), record("log", "check", "t_chk")], 1,
         "malformed"),
        ([record("sync", "register", "t_reg"), record("model", "check", "t_ok"),
          record("log", "check", None)], 2, "carries activity"),
        ([record("sync", "register", "t_nope"), record("log", "check", None)], 1, "unknown"),
        ([record("sync", "register", "t_reg"), record("model", None, "t_ok"),
          record("sync", "check", "t_chk")], 0, "cost"),
    ],
)
def test_validity_check_rejects_invalid_alignments(records, cost, reason):
    model = Model(PRESETS["choice-loop"]())
    error = model.alignment_error(["register", "check"], records, cost)
    assert error is not None and reason in error


def test_validity_check_accepts_a_valid_alignment():
    model = Model(PRESETS["choice-loop"]())
    records = [record("sync", "register", "t_reg"), record("model", None, "t_ok"),
               record("sync", "check", "t_chk"), record("model", None, "t_back")]
    assert model.alignment_error(["register", "check"], records, 1) is None
    assert model.prefix_costs(["register", "check"]) == [0, 1]
